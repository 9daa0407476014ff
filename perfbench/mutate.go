package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	dcdatalog "repro"
	"repro/internal/datasets"
	"repro/internal/queries"
	"repro/internal/server"
)

// The mutate workload: a writer and a reader, each a closed-loop client,
// share one dataset and the service's worker budget. The writer posts
// single-edge /v1/mutate batches (half inserts, Zipf sources) that refresh
// a materialized TC view incrementally; the reader sends the point query
// mix. The graph is sparse (Gnp(8000, 6000)) so deletes stay incremental;
// on a dense graph every delete falls back to a full recompute.
const (
	mutateN        = 8000
	mutateEdges    = 6000
	mutateZipf     = 1.3
	mutateInsFrac  = 0.5
	mutateOpsPerS  = 600 // upper bound on the writer's rate, sizes the stream
	mutateWarmup   = 100
	mutateWriteSLO = 50 * time.Millisecond
	mutateReadSLO  = 20 * time.Millisecond
)

// mutatePlan is the seeded sequence: the base graph, the update stream
// and the reader's sources.
type mutatePlan struct {
	base    []datasets.Edge
	ops     []datasets.UpdateOp
	sources []int64
}

func newMutatePlan(seed int64, window time.Duration) mutatePlan {
	base := datasets.Gnp(mutateN, mutateEdges, seed)
	n := mutateWarmup + int(window.Seconds()*mutateOpsPerS)
	return mutatePlan{
		base:    base,
		ops:     datasets.UpdateStream(base, mutateN, n, mutateInsFrac, mutateZipf, seed+1),
		sources: zipfSources(seed+2, mutateN, pointZipf, mutateWarmup+int(window.Seconds()*3*mutateOpsPerS)),
	}
}

func opBody(op datasets.UpdateOp) mutateOp {
	line := fmt.Sprintf("%d\t%d\n", op.Edge.Src, op.Edge.Dst)
	if op.Delete {
		return mutateOp{Relation: "arc", Delete: line}
	}
	return mutateOp{Relation: "arc", Insert: line}
}

// write sends one mutation and checks that it applied and refreshed the
// view.
func write(ctx context.Context, s *service, op datasets.UpdateOp) error {
	var rep mutateReply
	if err := s.post(ctx, "/v1/mutate", mustJSON(mutateReq{Dataset: "graph", Ops: []mutateOp{opBody(op)}}), &rep); err != nil {
		return err
	}
	if rep.Inserted+rep.Deleted != 1 {
		return fmt.Errorf("mutation applied %d+%d tuples, want 1", rep.Inserted, rep.Deleted)
	}
	if v, ok := rep.Views["tc"]; !ok || v.Error != "" || v.Mode == "" {
		return fmt.Errorf("view tc not refreshed: %+v", rep.Views)
	}
	return nil
}

func runMutate(r *runner) error {
	ctx := context.Background()
	plan := newMutatePlan(r.seed, r.window)
	spec := arcSpec("arc", plan.base)
	tc := queries.TC()
	reps := 15
	if r.trace {
		reps = 1
	}
	svc, err := r.setupService(reps, func(s *service) error {
		if err := register(ctx, s, "graph", spec); err != nil {
			return err
		}
		var info map[string]any
		return s.post(ctx, "/v1/views", mustJSON(viewReq{Dataset: "graph", Name: "tc", Program: tc.Source}), &info)
	})
	if err != nil {
		return err
	}
	defer svc.stop()

	// Warm-up: alternate writes and reads so the view, the prepared cache
	// and the index cache are past their first-use costs.
	applied := 0
	for i := 0; i < mutateWarmup; i++ {
		err := write(ctx, svc, plan.ops[applied])
		r.check("warm-up write", err)
		applied++
		_, err = pointAsk(ctx, svc, "graph", plan.sources[i], nil)
		r.check("warm-up read", err)
	}
	read := mutateWarmup

	drive := func(window time.Duration, tr *tracer) (writes, reads []call, elapsed time.Duration) {
		_, elapsed = closedLoop(ctx, 2, window, func(client int) (bool, error) {
			if client == 0 {
				if applied == len(plan.ops) {
					return false, nil
				}
				sp := tr.start("http.mutate", span{}, tr.request())
				t := time.Now()
				err := write(ctx, svc, plan.ops[applied])
				lat := time.Since(t)
				tr.end(sp)
				applied++
				writes = append(writes, call{kind: "write", out: outcome{Lat: lat, Err: err}, rtt: lat})
				return true, err
			}
			if read == len(plan.sources) {
				return false, nil
			}
			sp := tr.start("http.request", span{}, tr.request())
			t := time.Now()
			rep, err := pointAsk(ctx, svc, "graph", plan.sources[read], nil)
			lat := time.Since(t)
			tr.end(sp)
			read++
			reads = append(reads, call{kind: "read", out: outcome{Lat: lat, Err: err}, rtt: lat,
				serverMS: rep.Stats.DurationMS, cached: rep.Cached, query: true})
			return true, err
		})
		return writes, reads, elapsed
	}

	window := r.window
	if r.trace {
		window /= 2
	}
	var writes, reads []call
	var elapsed time.Duration
	r.measured(func() { writes, reads, elapsed = drive(window, nil) })
	r.mutateFigures(writes, reads, elapsed)
	var tr *tracer
	if r.trace {
		tr = newTracer()
		var tracedWrites, tracedReads []call
		traced, allocs, gcs := tracedPhase(func() []call {
			tracedWrites, tracedReads, _ = drive(window, tr)
			return append(append([]call(nil), tracedWrites...), tracedReads...)
		})
		r.httpLayers(traced, allocs, gcs, nil)
		r.layers.val("trace.overhead_pct", 100*(lats(outcomes(tracedWrites)).p50()/lats(outcomes(writes)).p50()-1), "%")
	}

	// Gate: the maintained view equals a cold evaluation over the base
	// graph with every applied update folded in.
	ds, _ := svc.srv.Registry().Get("graph")
	r.check("view gate", viewGate(ctx, ds.DB(), plan.base, plan.ops[:applied]))

	if r.trace {
		return r.mutateReplay(ctx, plan, spec, window, tr)
	}
	return nil
}

func outcomes(calls []call) []outcome {
	out := make([]outcome, len(calls))
	for i, c := range calls {
		out[i] = c.out
	}
	return out
}

// viewGate compares the view's tc with a cold evaluation.
func viewGate(ctx context.Context, db *dcdatalog.Database, base []datasets.Edge, ops []datasets.UpdateOp) error {
	v := db.View("tc")
	if v == nil {
		return fmt.Errorf("view tc missing")
	}
	cold := dcdatalog.NewDatabase()
	if err := cold.DeclareSchema(queries.Arc()); err != nil {
		return err
	}
	final := datasets.ApplyUpdates(base, ops)
	if err := cold.LoadTuples("arc", datasets.EdgeTuples(final)); err != nil {
		return err
	}
	res, err := cold.QueryContext(ctx, queries.TC().Source)
	if err != nil {
		return err
	}
	got, want := tupleRows(v.Relation("tc")), tupleRows(res.Relation("tc"))
	if digest(got) != digest(want) {
		return fmt.Errorf("view tc has %d rows (digest %s), cold evaluation %d (digest %s)",
			len(got), digest(got), len(want), digest(want))
	}
	return nil
}

func tupleRows(ts []dcdatalog.Tuple) []row {
	out := make([]row, len(ts))
	for i, t := range ts {
		out[i] = make(row, len(t))
		for j, v := range t {
			out[i][j] = v.Int()
		}
	}
	return out
}

func (r *runner) mutateFigures(writes, reads []call, elapsed time.Duration) {
	for _, c := range append(append([]call(nil), writes...), reads...) {
		r.check(c.kind, c.out.Err)
	}
	w, rd := lats(outcomes(writes)), lats(outcomes(reads))
	r.samples["write"], r.samples["read"] = len(w), len(rd)
	r.e2e.p50("mutate_p50_ms", w)
	r.e2e.tail("mutate_p99_ms", w)
	r.e2e.val("mutates_per_s", float64(len(w))/elapsed.Seconds(), "1/s")
	r.e2e.p50("point_p50_ms", rd)
	r.e2e.tail("point_p99_ms", rd)
	r.e2e.val("queries_per_s", float64(len(rd))/elapsed.Seconds(), "1/s")
	r.e2e.val("ops_per_s", float64(len(w))/elapsed.Seconds(), "1/s")
	r.e2e.set("op_p50_ms", metric{Value: w.p50(), Unit: "ms", N: len(w)})
	within := 0
	for _, c := range writes {
		if c.out.Err == nil && c.out.Lat <= mutateWriteSLO {
			within++
		}
	}
	for _, c := range reads {
		if c.out.Err == nil && c.out.Lat <= mutateReadSLO {
			within++
		}
	}
	r.e2e.val("slo_pct", 100*ratio(float64(within), float64(len(writes)+len(reads))), "%")
	r.errorPct()
}

// mutateReplay replays the update stream from the base graph in process
// with a writer and a reader goroutine sharing one admission budget.
func (r *runner) mutateReplay(ctx context.Context, plan mutatePlan, spec server.RelationSpec, window time.Duration, tr *tracer) error {
	rp := newReplay(tr)
	ds, err := rp.dataset("graph", queries.TC().EDB, spec)
	if err != nil {
		return err
	}
	db := ds.DB()
	var view *dcdatalog.View
	tr.wrap("ivm.materialize", span{}, tr.request(), func() { view, err = db.MaterializeContext(ctx, "tc", queries.TC().Source) })
	if err != nil {
		return err
	}
	before := sumBase([]*server.Dataset{ds})
	var wg sync.WaitGroup
	var werr, rerr error
	wrote := 0
	q := queries.BoundTC()
	wg.Add(2)
	go func() {
		defer wg.Done()
		werr = replayFor(window, func(i int) error {
			if i >= len(plan.ops) {
				return nil
			}
			wrote = i + 1
			return rp.mutation(ctx, db, view, opBody(plan.ops[i]))
		})
	}()
	go func() {
		defer wg.Done()
		rerr = replayFor(window, func(i int) error {
			_, err := rp.query(ctx, "read", ds, q, map[string]any{"src": plan.sources[i%len(plan.sources)]}, q.Output, pointRowLimit)
			return err
		})
	}()
	wg.Wait()
	r.check("replay writer", werr)
	r.check("replay reader", rerr)
	r.check("replay view gate", viewGate(ctx, db, plan.base, plan.ops[:wrote]))
	r.layerFigures(rp, before, sumBase([]*server.Dataset{ds}))
	return nil
}
