package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts pins the connection timeouts: a client that
// never finishes its headers, or an idle keep-alive connection, must
// not hold a connection forever.
func TestHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	s := newHTTPServer("127.0.0.1:0", h)
	if s.Addr != "127.0.0.1:0" || s.Handler != h {
		t.Fatalf("addr/handler not wired: %q %v", s.Addr, s.Handler)
	}
	if s.ReadHeaderTimeout <= 0 || s.ReadHeaderTimeout != readHeaderTimeout {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", s.ReadHeaderTimeout, readHeaderTimeout)
	}
	if s.IdleTimeout <= 0 || s.IdleTimeout != idleTimeout {
		t.Fatalf("IdleTimeout = %v, want %v", s.IdleTimeout, idleTimeout)
	}
}
