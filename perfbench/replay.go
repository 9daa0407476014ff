package main

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	dcdatalog "repro"
	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/pcg"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/queries"
	"repro/internal/rewrite"
	"repro/internal/server"
	"repro/internal/storage"
)

// replay re-issues a workload's request sequence in process, calling each
// layer's public entry point inside a span in the order the query
// service's handlers do: decode, admission, prepared-program lookup, the
// front end on a miss, execution, encode. It keeps its own 128-entry LRU
// with the service's policy (key = dataset, text and parameters), since
// the service's cache is internal to its handler.
type replay struct {
	tr   *tracer
	adm  *server.Admission
	want int

	mu        sync.Mutex
	lru       *lru
	bases     map[string]*engine.PreparedBase
	runs      []execRun
	misses    int
	rewritten int
	refreshes []dcdatalog.RefreshStats
}

// execRun is one Prepared.Exec and the cell it served.
type execRun struct {
	cell  string
	stats engine.Stats
}

func newReplay(tr *tracer) *replay {
	budget := runtime.GOMAXPROCS(0)
	return &replay{
		tr:    tr,
		adm:   server.NewAdmission(budget, 16),
		want:  min(4, budget), // the service's default worker request
		lru:   newLRU(128),
		bases: map[string]*engine.PreparedBase{},
	}
}

// dataset builds a dataset the way registration does, and a prepared base
// over the same tuples for the front end's statistics.
func (rp *replay) dataset(name string, schemas []*storage.Schema, rels ...server.RelationSpec) (*server.Dataset, error) {
	var ds *server.Dataset
	var err error
	rp.tr.wrap("server.build_dataset", span{}, rp.tr.request(), func() { ds, err = server.BuildDataset(name, rels) })
	if err != nil {
		return nil, err
	}
	sm := map[string]*storage.Schema{}
	edb := map[string][]storage.Tuple{}
	for _, s := range schemas {
		sm[s.Name] = s
		edb[s.Name] = ds.DB().Relation(s.Name)
	}
	rp.bases[name] = engine.NewPreparedBase(sm, edb)
	return ds, nil
}

// query replays one POST /v1/query and returns the output's row count.
func (rp *replay) query(ctx context.Context, cell string, ds *server.Dataset, q queries.Query, params map[string]any, out string, limit int) (int, error) {
	req := rp.tr.request()
	root := rp.tr.start("request", span{}, req)
	defer rp.tr.end(root)

	body := mustJSON(queryReq{Dataset: ds.Name, Program: q.Source, Params: params, Relations: []string{out}, Limit: limit})
	var qr queryReq
	var err error
	rp.tr.wrap("server.decode", root, req, func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.UseNumber()
		err = dec.Decode(&qr)
	})
	if err != nil {
		return 0, err
	}
	var granted int
	var release func()
	rp.tr.wrap("server.admission", root, req, func() { granted, release, err = rp.adm.Acquire(ctx, rp.want) })
	if err != nil {
		return 0, err
	}
	defer release()

	key := cacheKey(ds.Name, q.Source, params)
	var prep *dcdatalog.Prepared
	var hit bool
	rp.tr.wrap("server.prepared_lookup", root, req, func() {
		rp.mu.Lock()
		prep, hit = rp.lru.get(key)
		rp.mu.Unlock()
	})
	if !hit {
		fe := rp.tr.start("frontend", root, req)
		err = rp.frontend(fe, req, ds.Name, q, params)
		if err == nil {
			opts := make([]dcdatalog.Option, 0, len(params))
			for k, v := range params {
				opts = append(opts, dcdatalog.WithParam(k, v))
			}
			rp.tr.wrap("dcdatalog.prepare", fe, req, func() { prep, err = ds.DB().Prepare(q.Source, opts...) })
		}
		rp.tr.end(fe)
		if err != nil {
			return 0, err
		}
		rp.mu.Lock()
		rp.lru.put(key, prep)
		rp.misses++
		rp.mu.Unlock()
	}

	var res *dcdatalog.Result
	rp.tr.wrap("engine.exec", root, req, func() { res, err = prep.Exec(ctx, dcdatalog.WithWorkers(granted)) })
	if err != nil {
		return 0, err
	}
	n := 0
	rp.tr.wrap("server.encode", root, req, func() {
		rows := res.Rows(out)
		n = len(rows)
		if limit > 0 && len(rows) > limit {
			rows = rows[:limit]
		}
		_, err = json.Marshal(map[string]any{"relations": map[string][][]any{out: rows}, "counts": map[string]int{out: n}})
	})
	rp.mu.Lock()
	rp.runs = append(rp.runs, execRun{cell, res.Stats()})
	rp.mu.Unlock()
	return n, err
}

// frontend runs parse, analysis, the demand rewrite, planning and
// physical compilation one layer at a time, each in its own span.
func (rp *replay) frontend(parent span, req int64, dataset string, q queries.Query, params map[string]any) error {
	schemas := map[string]*storage.Schema{}
	for _, s := range q.EDB {
		schemas[s.Name] = s
	}
	types := map[string]storage.Type{}
	bound := map[string]physical.Param{}
	for k, v := range params {
		i, ok := v.(int64)
		if !ok {
			return fmt.Errorf("param %s: want int64, got %T", k, v)
		}
		types[k] = storage.TInt
		bound[k] = physical.Param{Value: storage.IntVal(i), Type: storage.TInt}
	}
	var prog *ast.Program
	var a *pcg.Analysis
	var err error
	if rp.tr.wrap("parser.parse", parent, req, func() { prog, err = parser.Parse(q.Source) }); err != nil {
		return err
	}
	if rp.tr.wrap("pcg.analyze", parent, req, func() { a, err = pcg.Analyze(prog, schemas, types) }); err != nil {
		return err
	}
	var rw *rewrite.Result
	rp.tr.wrap("rewrite.apply", parent, req, func() { rw = rewrite.Apply(a) })
	if rw.Rewritten() {
		if rp.tr.wrap("pcg.analyze", parent, req, func() { a, err = pcg.Analyze(rw.Program, schemas, types) }); err != nil {
			return err
		}
		rp.mu.Lock()
		rp.rewritten++
		rp.mu.Unlock()
	}
	var lp *plan.Plan
	if rp.tr.wrap("plan.build", parent, req, func() { lp, err = plan.Build(a, plan.WithStats(rp.bases[dataset])) }); err != nil {
		return err
	}
	rp.tr.wrap("physical.compile", parent, req, func() { _, err = physical.Compile(lp, bound, storage.NewSymbolTable()) })
	return err
}

// mutation replays one single-edge POST /v1/mutate: decode and parse,
// one admission slot, the tuple update and the view refresh.
func (rp *replay) mutation(ctx context.Context, db *dcdatalog.Database, view *dcdatalog.View, op mutateOp) error {
	req := rp.tr.request()
	root := rp.tr.start("mutation", span{}, req)
	defer rp.tr.end(root)
	body := mustJSON(mutateReq{Dataset: "graph", Ops: []mutateOp{op}})
	var mr mutateReq
	var tuples []dcdatalog.Tuple
	var err error
	rp.tr.wrap("server.decode", root, req, func() {
		if err = json.Unmarshal(body, &mr); err != nil {
			return
		}
		tuples, err = db.ParseTSV("arc", strings.NewReader(mr.Ops[0].Insert+mr.Ops[0].Delete))
	})
	if err != nil {
		return err
	}
	var release func()
	rp.tr.wrap("server.admission", root, req, func() { _, release, err = rp.adm.Acquire(ctx, 1) })
	if err != nil {
		return err
	}
	defer release()
	rp.tr.wrap("storage.mutation_apply", root, req, func() {
		if mr.Ops[0].Insert != "" {
			err = db.InsertTuples("arc", tuples)
		} else {
			err = db.DeleteTuples("arc", tuples)
		}
	})
	if err != nil {
		return err
	}
	var st dcdatalog.RefreshStats
	rp.tr.wrap("ivm.refresh", root, req, func() { st, err = view.Refresh(ctx) })
	rp.mu.Lock()
	rp.refreshes = append(rp.refreshes, st)
	rp.mu.Unlock()
	return err
}

// cacheKey mirrors the service's prepared-cache key.
func cacheKey(dataset, program string, params map[string]any) string {
	names := make([]string, 0, len(params))
	for k := range params {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(dataset + "\x00" + program)
	for _, k := range names {
		fmt.Fprintf(&b, "\x00%s=%v", k, params[k])
	}
	return b.String()
}

// lru is a fixed-capacity least-recently-used map of prepared programs.
type lru struct {
	cap   int
	ll    *list.List
	byKey map[string]*list.Element
}

type lruEntry struct {
	key string
	p   *dcdatalog.Prepared
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, ll: list.New(), byKey: map[string]*list.Element{}}
}

func (c *lru) get(key string) (*dcdatalog.Prepared, bool) {
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry).p, true
	}
	return nil, false
}

func (c *lru) put(key string, p *dcdatalog.Prepared) {
	c.byKey[key] = c.ll.PushFront(&lruEntry{key, p})
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.byKey, el.Value.(*lruEntry).key)
	}
}

// replayFor runs step until window has passed, at least once.
func replayFor(window time.Duration, step func(i int) error) error {
	deadline := time.Now().Add(window)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if err := step(i); err != nil {
			return err
		}
	}
	return nil
}

// layerFigures turns the replay's spans and counters into the per-layer
// metrics. baseBefore/After bracket the replay's index-cache counters.
func (r *runner) layerFigures(rp *replay, baseBefore, baseAfter dcdatalog.BaseStats) {
	spans := rp.tr.finished()
	r.spans = spans
	L := r.layers
	durs := byName(spans, span.dur)

	// Per prepared-cache miss: sum each layer's spans within a request.
	perMiss := func(name string) timing {
		sum := map[int64]float64{}
		for _, s := range spans {
			if s.Name == name {
				sum[s.Req] += float64(s.dur()) / 1e3
			}
		}
		t := make(timing, 0, len(sum))
		for _, v := range sum {
			t = append(t, v)
		}
		return t
	}
	for _, n := range []string{"parser.parse", "pcg.analyze", "rewrite.apply", "plan.build", "physical.compile"} {
		t := perMiss(n)
		L.set(n+"_us", metric{Value: t.p50(), Unit: "us", N: len(t)})
	}
	L.val("frontend.compiles", float64(rp.misses), "count")
	L.val("rewrite.applied_ratio", ratio(float64(rp.rewritten), float64(rp.misses)), "ratio")
	wait := durs["server.admission"]
	v, p := wait.tail()
	L.set("server.admission_wait_p99_ms", metric{Value: v, Unit: "ms", N: len(wait), Pct: p})

	// Engine: medians per execution, shares and ratios over sums.
	var setup, fix timing
	cellFix := map[string]timing{}
	var imb timing
	var busy, waitT, capacity time.Duration
	var steal engine.StealStats
	var probe storage.ProbeCounters
	var iters, sent, derived, merged int64
	for _, run := range rp.runs {
		st := run.stats
		setup = append(setup, float64(st.SetupDuration)/1e3)
		fix = append(fix, float64(st.Duration)/1e6)
		cellFix[run.cell] = append(cellFix[run.cell], float64(st.Duration)/1e6)
		if im := st.Imbalance(); im > 0 {
			imb = append(imb, im)
		}
		capacity += time.Duration(st.Workers) * st.Duration
		for _, s := range st.Strata {
			for _, b := range s.BusyTime {
				busy += b
			}
			for _, w := range s.WaitTime {
				waitT += w
			}
			sent += s.TuplesSent
			derived += s.TuplesDerived
			merged += s.TuplesMerged
		}
		steal.Add(st.Steal)
		probe.Add(st.Probe)
		iters += st.TotalIters()
	}
	n := float64(len(rp.runs))
	L.set("engine.setup_us", metric{Value: setup.p50(), Unit: "us", N: len(setup)})
	exec := durs["engine.exec"]
	L.set("engine.exec_us", metric{Value: exec.p50() * 1e3, Unit: "us", N: len(exec)})
	L.set("engine.fixpoint_ms", metric{Value: fix.p50(), Unit: "ms", N: len(fix)})
	for _, c := range []string{"tc", "cc", "sg", "hub_cc", "sssp"} {
		t := cellFix[c]
		L.set("engine.fixpoint_ms."+c, metric{Value: t.p50(), Unit: "ms", N: len(t)})
	}
	L.val("engine.busy_share", ratio(float64(busy), float64(capacity)), "ratio")
	L.val("engine.wait_share", ratio(float64(waitT), float64(capacity)), "ratio")
	L.set("engine.imbalance", metric{Value: imb.p50(), Unit: "ratio", N: len(imb)})
	L.val("engine.steal_success_ratio", ratio(float64(steal.MorselsStolen), float64(steal.Attempts)), "ratio")
	L.val("engine.morsels", ratio(float64(steal.MorselsExecuted), n), "count")
	L.val("engine.iterations", ratio(float64(iters), n), "count")
	L.val("engine.tuples_sent", ratio(float64(sent), n), "count")
	L.val("engine.tuples_derived", ratio(float64(derived), n), "count")
	L.val("engine.merge_ratio", ratio(float64(merged), float64(derived)), "ratio")

	L.val("storage.tag_reject_rate", probe.TagRejectRate(), "ratio")
	L.val("storage.key_skip_rate", probe.KeySkipRate(), "ratio")
	L.val("storage.bloom_skip_rate", probe.BloomSkipRate(), "ratio")
	hits, builds := baseAfter.Hits-baseBefore.Hits, baseAfter.Misses-baseBefore.Misses
	L.val("storage.index_hit_ratio", ratio(float64(hits), float64(hits+builds)), "ratio")
	L.val("storage.index_builds", float64(builds), "count")
	apply := durs["storage.mutation_apply"]
	L.set("storage.mutation_apply_us", metric{Value: apply.p50() * 1e3, Unit: "us", N: len(apply)})

	var refresh timing
	var incr, delta, over, red int
	var ins, del, rdr time.Duration
	for _, st := range rp.refreshes {
		refresh = append(refresh, float64(st.Duration)/1e6)
		if st.Mode == "incremental" {
			incr++
		}
		delta += st.DeltaTuples
		over += st.OverDeleted
		red += st.Rederived
		ins += st.InsDuration
		del += st.DelDuration
		rdr += st.RedDuration
	}
	nr := float64(len(rp.refreshes))
	L.set("ivm.refresh_p50_ms", metric{Value: refresh.p50(), Unit: "ms", N: len(refresh), Pct: 50})
	v, p = refresh.tail()
	L.set("ivm.refresh_p99_ms", metric{Value: v, Unit: "ms", N: len(refresh), Pct: p})
	L.val("ivm.incremental_ratio", ratio(float64(incr), nr), "ratio")
	L.val("ivm.delta_tuples", ratio(float64(delta), nr), "count")
	L.val("ivm.rederive_ratio", ratio(float64(red), float64(over)), "ratio")
	L.val("ivm.ins_ms", ratio(float64(ins)/1e6, nr), "ms")
	L.val("ivm.del_ms", ratio(float64(del)/1e6, nr), "ms")
	L.val("ivm.red_ms", ratio(float64(rdr)/1e6, nr), "ms")

	self := selfTimes(spans)
	selfBy := map[string]timing{}
	for _, s := range spans {
		selfBy[s.Name] = append(selfBy[s.Name], float64(self[s.ID])/1e3)
	}
	names := make([]string, 0, len(selfBy))
	for k := range selfBy {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		r.selfTime.set(k, metric{Value: selfBy[k].p50(), Unit: "us", N: len(selfBy[k])})
	}
}
