package main

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// outcome is one request's fate. Lat is measured from the request's due
// time in an open loop and from its send time in a closed loop; Late is
// how far behind schedule the open-loop generator handed it out.
type outcome struct {
	Lat, Late time.Duration
	Err       error
}

// poissonDues draws arrival offsets at rate per second over window.
func poissonDues(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var dues []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return dues
		}
		dues = append(dues, d)
	}
}

// openLoop sends request i at dues[i] after the call starts, whether or
// not earlier requests have finished, over conns concurrent senders.
// Requests due while every sender is busy wait in a queue, and that wait
// counts in their latency: a stall inflates every request queued behind
// it, as it would for independent users. It returns when every request
// has finished or ctx ends, with the time that took; requests not sent by
// then are dropped from the result.
func openLoop(ctx context.Context, dues []time.Duration, conns int, do func(i int) error) ([]outcome, time.Duration) {
	out := make([]outcome, len(dues))
	sent := make([]bool, len(dues))
	// Buffered for every request so the generator never blocks on busy
	// senders: the backlog lives here and shows in the latencies.
	queue := make(chan int, len(dues))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				err := do(i)
				out[i].Lat = time.Since(start) - dues[i]
				out[i].Err = err
			}
		}()
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
gen:
	for i, due := range dues {
		if wait := due - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break gen
			}
		}
		out[i].Late = time.Since(start) - due
		sent[i] = true
		queue <- i
	}
	close(queue)
	wg.Wait()
	elapsed := time.Since(start)
	kept := out[:0]
	for i, o := range out {
		if sent[i] {
			kept = append(kept, o)
		}
	}
	return kept, elapsed
}

// closedLoop runs clients that each send their next request only after
// the previous one returns, until the window ends, and returns how long
// that took (the window plus the last requests' overrun). do(c) sends
// client c's next request; ok=false ends that client early.
func closedLoop(ctx context.Context, clients int, window time.Duration, do func(client int) (ok bool, err error)) ([][]outcome, time.Duration) {
	out := make([][]outcome, clients)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				t := time.Now()
				ok, err := do(c)
				if !ok {
					return
				}
				out[c] = append(out[c], outcome{Lat: time.Since(t), Err: err})
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(start)
}
