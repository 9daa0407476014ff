package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/server"
)

// service is an in-process dcserve on a loopback listener with a client
// limited to conns connections.
type service struct {
	srv  *server.Server
	hs   *http.Server
	done chan struct{}
	base string
	hc   *http.Client
}

func startService(conns int) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{
		srv:  server.New(server.Config{}),
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
		hc: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	s.hs = &http.Server{Handler: s.srv}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return s, nil
}

// stop closes the listener and idle connections and waits for the serve
// goroutine to exit.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // an in-flight request past 10s is abandoned
	s.hc.CloseIdleConnections()
	<-s.done
}

// errStatus is a non-2xx reply.
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// post sends body as JSON and decodes a 2xx reply into out.
func (s *service) post(ctx context.Context, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &errStatus{resp.StatusCode, string(bytes.TrimSpace(msg))}
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("decode %s reply: %w", path, err)
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only benchmark-built values are marshalled
	}
	return b
}

// The request and reply shapes below mirror the /v1 wire format.

type datasetReq struct {
	Name      string                `json:"name"`
	Relations []server.RelationSpec `json:"relations"`
}

type queryReq struct {
	Dataset   string         `json:"dataset"`
	Program   string         `json:"program"`
	Params    map[string]any `json:"params,omitempty"`
	Relations []string       `json:"relations,omitempty"`
	Limit     int            `json:"limit,omitempty"`
}

type queryReply struct {
	Relations map[string][][]json.Number `json:"relations"`
	Counts    map[string]int             `json:"counts"`
	Stats     struct {
		DurationMS float64 `json:"duration_ms"`
		SetupMS    float64 `json:"setup_ms"`
	} `json:"stats"`
	Cached    bool `json:"cached"`
	Truncated bool `json:"truncated"`
}

type mutateOp struct {
	Relation string `json:"relation"`
	Insert   string `json:"insert,omitempty"`
	Delete   string `json:"delete,omitempty"`
}

type mutateReq struct {
	Dataset string     `json:"dataset"`
	Ops     []mutateOp `json:"ops"`
}

type mutateReply struct {
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	Views    map[string]struct {
		Mode  string `json:"mode"`
		Error string `json:"error"`
	} `json:"views"`
}

type viewReq struct {
	Dataset string `json:"dataset"`
	Name    string `json:"name"`
	Program string `json:"program"`
}
