package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/datasets"
	"repro/internal/queries"
	"repro/internal/server"
)

// The point workload: bound single-source TC (queries.BoundTC) over a
// sparse tree, sent in an open loop with Poisson arrivals, because point
// lookups come from independent users. pointRate sits at about half of
// one client's capacity, so queueing stays short and p99 moves before
// throughput does. The tree's ~30k vertices give far more distinct
// sources than the 128-entry prepared LRU holds, and the cache key
// includes the source, so both hits and misses reach the front end. The
// tree is complete, so every seed gives the same shape under different
// vertex labels and the work per run does not drift with the seed.
const (
	pointRate     = 400.0 // requests per second
	pointZipf     = 1.2
	pointHeight   = 9 // Tree(9, 3, 3): 29,524 vertices, mean reach ~8.5
	pointDegree   = 3
	pointRowLimit = 64
	pointSLO      = 10 * time.Millisecond
	pointWarmup   = 1500
)

// pointPlan is the seeded request sequence: arrival offsets and sources
// for the timed phase, and a separate warm-up source stream.
type pointPlan struct {
	dues    []time.Duration
	sources []int64
	warm    []int64
}

func newPointPlan(seed int64, n int64, window time.Duration) pointPlan {
	dues := poissonDues(rand.New(rand.NewSource(seed)), pointRate, window)
	return pointPlan{
		dues:    dues,
		sources: zipfSources(seed+1, n, pointZipf, len(dues)),
		warm:    zipfSources(seed+2, n, pointZipf, pointWarmup),
	}
}

// pointAsk sends one bound TC request and checks the reach count.
func pointAsk(ctx context.Context, s *service, dataset string, src int64, want map[int64]int) (queryReply, error) {
	var rep queryReply
	q := queries.BoundTC()
	body := mustJSON(queryReq{Dataset: dataset, Program: q.Source, Params: map[string]any{"src": src},
		Relations: []string{q.Output}, Limit: pointRowLimit})
	if err := s.post(ctx, "/v1/query", body, &rep); err != nil {
		return rep, err
	}
	if w, ok := want[src]; ok && rep.Counts[q.Output] != w {
		return rep, fmt.Errorf("reach(%d): %d rows, want %d", src, rep.Counts[q.Output], w)
	}
	return rep, nil
}

// reachCounts is the independent traversal: for each source, how many
// vertices it reaches.
func reachCounts(edges []datasets.Edge, srcs ...[]int64) map[int64]int {
	adj := adjacency(edges)
	want := map[int64]int{}
	for _, list := range srcs {
		for _, s := range list {
			if _, ok := want[s]; !ok {
				want[s] = len(reachFrom(adj, s))
			}
		}
	}
	return want
}

func runPoint(r *runner) error {
	ctx := context.Background()
	tree := datasets.Tree(pointHeight, pointDegree, pointDegree, r.seed)
	edges := relabel(tree, int64(len(tree)+1), r.seed)
	n := int64(len(edges) + 1)
	spec := arcSpec("arc", edges)
	reps := 15
	if r.trace {
		reps = 1
	}
	svc, err := r.setupService(reps, func(s *service) error { return register(ctx, s, "tree", spec) })
	if err != nil {
		return err
	}
	defer svc.stop()

	plan := newPointPlan(r.seed, n, r.window)
	want := reachCounts(edges, plan.sources, plan.warm)
	for _, src := range plan.warm {
		_, err := pointAsk(ctx, svc, "tree", src, want)
		r.check("warm-up", err)
	}

	drive := func(dues []time.Duration, srcs []int64, tr *tracer) ([]call, []outcome, time.Duration) {
		calls := make([]call, len(dues))
		outs, elapsed := openLoop(ctx, dues, r.conns, func(i int) error {
			sp := tr.start("http.request", span{}, tr.request())
			t := time.Now()
			rep, err := pointAsk(ctx, svc, "tree", srcs[i], want)
			calls[i] = call{kind: "point", rtt: time.Since(t), serverMS: rep.Stats.DurationMS, cached: rep.Cached, query: true}
			tr.end(sp)
			return err
		})
		for i := range outs {
			calls[i].out = outs[i]
		}
		return calls[:len(outs)], outs, elapsed
	}

	if !r.trace {
		var outs []outcome
		var elapsed time.Duration
		r.measured(func() { _, outs, elapsed = drive(plan.dues, plan.sources, nil) })
		r.pointFigures(outs, elapsed)
		return nil
	}
	// Traced run: the first half of the window untraced, the second half
	// traced, then the in-process replay of the same sources.
	half := r.window / 2
	split := 0
	for split < len(plan.dues) && plan.dues[split] < half {
		split++
	}
	var outs []outcome
	var elapsed time.Duration
	r.measured(func() { _, outs, elapsed = drive(plan.dues[:split], plan.sources[:split], nil) })
	r.pointFigures(outs, elapsed)
	tr := newTracer()
	shifted := make([]time.Duration, len(plan.dues)-split)
	for i := range shifted {
		shifted[i] = plan.dues[split+i] - half
	}
	var tracedOuts []outcome
	traced, allocs, gcs := tracedPhase(func() []call {
		var c []call
		c, tracedOuts, _ = drive(shifted, plan.sources[split:], tr)
		return c
	})
	r.httpLayers(traced, allocs, gcs, tracedOuts)
	r.layers.val("trace.overhead_pct", 100*(lats(tracedOuts).p50()/lats(outs).p50()-1), "%")

	rp := newReplay(tr)
	ds, err := rp.dataset("tree", queries.BoundTC().EDB, spec)
	if err != nil {
		return err
	}
	before := sumBase([]*server.Dataset{ds})
	q := queries.BoundTC()
	err = replayFor(half, func(i int) error {
		src := plan.sources[i%len(plan.sources)]
		got, err := rp.query(ctx, "point", ds, q, map[string]any{"src": src}, q.Output, pointRowLimit)
		if err == nil && got != want[src] {
			err = fmt.Errorf("reach(%d): %d rows, want %d", src, got, want[src])
		}
		r.check("replay", err)
		return nil
	})
	if err != nil {
		return err
	}
	r.layerFigures(rp, before, sumBase([]*server.Dataset{ds}))
	return nil
}

func (r *runner) pointFigures(outs []outcome, elapsed time.Duration) {
	for _, o := range outs {
		r.check("point", o.Err)
	}
	t := lats(outs)
	r.samples["point"] = len(t)
	r.e2e.p50("point_p50_ms", t)
	r.e2e.tail("point_p99_ms", t)
	qps := float64(len(t)) / elapsed.Seconds()
	r.e2e.val("queries_per_s", qps, "1/s")
	r.e2e.val("ops_per_s", qps, "1/s")
	r.e2e.set("op_p50_ms", metric{Value: t.p50(), Unit: "ms", N: len(t)})
	r.e2e.val("slo_pct", sloPct(outs, pointSLO), "%")
	r.errorPct()
}
