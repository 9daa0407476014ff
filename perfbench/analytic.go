package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/datasets"
	"repro/internal/queries"
	"repro/internal/server"
)

// The analytic workload: one client in a closed loop cycles the unbound
// paper queries over fixed inputs, as a batch analyst waiting for each
// answer would. Replies are capped at analyticLimit rows (counts stay
// exact), so the fixpoint layers do nearly all the work.
const analyticLimit = 10

// cell is one query over one input.
type cell struct {
	name    string // metric prefix
	dataset string
	q       queries.Query
	rel     server.RelationSpec
	params  map[string]any
	oracle  func() []row
	limit   time.Duration // latency limit for slo_pct, about twice the p50 on a 2-vCPU host
	count   int           // expected output rows, set by the gate
}

// trackingSeed draws the analytic graphs: they are the repository's
// tracking cells (cmd/bench's default seed), fixed inputs whose cost does
// not drift with the run's seed.
const trackingSeed = 42

// analyticCells generates the inputs: the tracking cells with their
// vertices relabelled by the seed, which moves hash partitioning and index
// layout but not the amount of work. The SSSP graph (about 1.3M warc rows)
// is the one input larger than a 4 MiB L2 and than the engine's 2^19-row
// probe-pipeline gate.
func analyticCells(seed int64) []*cell {
	tc := relabel(datasets.RMATn(512, trackingSeed), 512, seed)
	cc := datasets.Undirect(relabel(datasets.Gnp(8000, 20000, trackingSeed), 8000, seed+1))
	tree := datasets.Tree(6, 2, 3, trackingSeed)
	sg := relabel(tree, int64(len(tree)+1), seed+2)
	hub := datasets.Undirect(relabel(datasets.Hub(4000, 24000, 1.3, trackingSeed), 4000, seed+3))
	spEdges := datasets.Undirect(relabel(datasets.RMATn(65536, trackingSeed), 65536, seed+4))
	sp := datasets.Weight(spEdges, 100, trackingSeed)
	start := datasets.HubVertex(spEdges)
	return []*cell{
		{name: "tc", dataset: "rmat-512", q: queries.TC(), rel: arcSpec("arc", tc),
			oracle: func() []row { return tcRows(tc) }, limit: 600 * time.Millisecond},
		{name: "cc", dataset: "gnp-8k", q: queries.CC(), rel: arcSpec("arc", cc),
			oracle: func() []row { return ccRows(cc) }, limit: 150 * time.Millisecond},
		{name: "sg", dataset: "tree-6", q: queries.SG(), rel: arcSpec("arc", sg),
			oracle: func() []row { return sgRows(sg) }, limit: 100 * time.Millisecond},
		{name: "hub_cc", dataset: "hub-4k", q: queries.CC(), rel: arcSpec("arc", hub),
			oracle: func() []row { return ccRows(hub) }, limit: 60 * time.Millisecond},
		{name: "sssp", dataset: "rmat-64k", q: queries.SSSP(), rel: warcSpec(sp),
			params: map[string]any{"start": start},
			oracle: func() []row { return ssspRows(sp, start) }, limit: 1600 * time.Millisecond},
	}
}

func (c *cell) request(limit int) []byte {
	return mustJSON(queryReq{Dataset: c.dataset, Program: c.q.Source, Params: c.params,
		Relations: []string{c.q.Output}, Limit: limit})
}

// ask sends the cell's query and checks the reply against the count the
// gate established.
func (c *cell) ask(ctx context.Context, s *service) (queryReply, error) {
	var rep queryReply
	if err := s.post(ctx, "/v1/query", c.request(analyticLimit), &rep); err != nil {
		return rep, err
	}
	if got := rep.Counts[c.q.Output]; got != c.count || rep.Truncated {
		return rep, fmt.Errorf("%s: %d rows (truncated=%v), want %d", c.name, got, rep.Truncated, c.count)
	}
	return rep, nil
}

// gate fetches the full answer once and compares its digest with the
// oracle's.
func (c *cell) gate(ctx context.Context, s *service) error {
	var rep queryReply
	if err := s.post(ctx, "/v1/query", c.request(0), &rep); err != nil {
		return err
	}
	got, err := replyRows(rep.Relations[c.q.Output])
	if err != nil {
		return err
	}
	want := c.oracle()
	c.count = len(want)
	if len(got) != len(want) || digest(got) != digest(want) {
		return fmt.Errorf("%s: engine %d rows digest %s, oracle %d rows digest %s",
			c.name, len(got), digest(got), len(want), digest(want))
	}
	return nil
}

func runAnalytic(r *runner) error {
	ctx := context.Background()
	cells := analyticCells(r.seed)
	reps := 3
	if r.trace {
		reps = 1
	}
	svc, err := r.setupService(reps, func(s *service) error {
		for _, c := range cells {
			if err := register(ctx, s, c.dataset, c.rel); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer svc.stop()

	// The gate runs before timing and fills each cell's expected count;
	// two warm-up passes then fill the prepared and index caches.
	for _, c := range cells {
		r.check("gate "+c.name, c.gate(ctx, svc))
	}
	if !r.correct() {
		return fmt.Errorf("correctness gate: %s", strings.Join(r.errs, "; "))
	}
	for pass := 0; pass < 2; pass++ {
		for _, c := range cells {
			_, err := c.ask(ctx, svc)
			r.check("warm-up "+c.name, err)
		}
	}

	drive := func(window time.Duration, tr *tracer) ([]call, time.Duration) {
		var calls []call
		_, elapsed := closedLoop(ctx, 1, window, func(int) (bool, error) {
			c := cells[len(calls)%len(cells)]
			sp := tr.start("http.request", span{}, tr.request())
			t := time.Now()
			rep, err := c.ask(ctx, svc)
			rtt := time.Since(t)
			tr.end(sp)
			calls = append(calls, call{kind: c.name, out: outcome{Lat: rtt, Err: err}, rtt: rtt,
				serverMS: rep.Stats.DurationMS, cached: rep.Cached, query: true})
			return true, err
		})
		return calls, elapsed
	}
	var calls []call
	var elapsed time.Duration
	window := r.window
	if r.trace {
		window /= 2
	}
	r.measured(func() { calls, elapsed = drive(window, nil) })
	r.analyticFigures(cells, calls, elapsed)

	if r.trace {
		tr := newTracer()
		traced, allocs, gcs := tracedPhase(func() []call {
			c, _ := drive(window, tr)
			return c
		})
		r.httpLayers(traced, allocs, gcs, nil)
		r.layers.val("trace.overhead_pct", 100*(geomean(cellP50s(cells, traced))/geomean(cellP50s(cells, calls))-1), "%")
		return r.analyticReplay(ctx, cells, window, tr)
	}
	return nil
}

func cellP50s(cells []*cell, calls []call) []float64 {
	by := map[string][]outcome{}
	for _, c := range calls {
		by[c.kind] = append(by[c.kind], c.out)
	}
	var out []float64
	for _, c := range cells {
		out = append(out, lats(by[c.name]).p50())
	}
	return out
}

func (r *runner) analyticFigures(cells []*cell, calls []call, elapsed time.Duration) {
	by := map[string][]outcome{}
	var all []outcome
	within := 0
	for _, c := range calls {
		r.check("query "+c.kind, c.out.Err)
		by[c.kind] = append(by[c.kind], c.out)
		all = append(all, c.out)
	}
	var p50s []float64
	for _, c := range cells {
		t := lats(by[c.name])
		r.e2e.p50(c.name+"_p50_ms", t)
		r.samples[c.name] = len(t)
		p50s = append(p50s, t.p50())
		for _, o := range by[c.name] {
			if o.Err == nil && o.Lat <= c.limit {
				within++
			}
		}
	}
	qps := float64(len(lats(all))) / elapsed.Seconds()
	r.e2e.val("queries_per_s", qps, "1/s")
	r.e2e.val("ops_per_s", qps, "1/s")
	r.e2e.set("op_p50_ms", metric{Value: geomean(p50s), Unit: "ms", N: len(all)})
	r.e2e.val("slo_pct", 100*ratio(float64(within), float64(len(all))), "%")
	r.errorPct()
}

func (r *runner) analyticReplay(ctx context.Context, cells []*cell, window time.Duration, tr *tracer) error {
	rp := newReplay(tr)
	dss := make([]*server.Dataset, len(cells))
	for i, c := range cells {
		ds, err := rp.dataset(c.dataset, c.q.EDB, c.rel)
		if err != nil {
			return err
		}
		dss[i] = ds
	}
	before := sumBase(dss)
	err := replayFor(window, func(i int) error {
		c := cells[i%len(cells)]
		n, err := rp.query(ctx, c.name, dss[i%len(cells)], c.q, c.params, c.q.Output, analyticLimit)
		if err == nil && n != c.count {
			err = fmt.Errorf("%d rows, want %d", n, c.count)
		}
		r.check("replay "+c.name, err)
		return nil
	})
	if err != nil {
		return err
	}
	r.layerFigures(rp, before, sumBase(dss))
	return nil
}
