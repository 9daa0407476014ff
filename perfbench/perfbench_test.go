package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/naive"
	"repro/internal/parser"
	"repro/internal/pcg"
	"repro/internal/queries"
	"repro/internal/storage"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000..1, unsorted
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 = %g, want 990", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 = %g, want 500", got)
	}
	if xs[0] != 1000 {
		t.Error("percentile reordered its input")
	}
}

// Reference values from Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

// A server that stalls on one request must inflate the latency of every
// request due while it is stalled: latency runs from the due time, not
// from when a sender got around to the request.
func TestOpenLoopChargesQueueingToLaterRequests(t *testing.T) {
	const stall = 80 * time.Millisecond
	dues := make([]time.Duration, 20)
	for i := range dues {
		dues[i] = time.Duration(i) * 2 * time.Millisecond
	}
	outs, _ := openLoop(context.Background(), dues, 1, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(outs) != len(dues) {
		t.Fatalf("%d outcomes, want %d", len(outs), len(dues))
	}
	for i, o := range outs {
		// Request i is due at dues[i] but cannot start before the stall
		// ends, so it waits at least stall - dues[i].
		if floor := stall - dues[i]; o.Lat < floor {
			t.Errorf("request %d (due %v): latency %v, want >= %v", i, dues[i], o.Lat, floor)
		}
	}
}

func TestClosedLoopStopsAtWindow(t *testing.T) {
	outs, elapsed := closedLoop(context.Background(), 2, 30*time.Millisecond, func(int) (bool, error) {
		time.Sleep(time.Millisecond)
		return true, nil
	})
	if len(outs[0]) == 0 || len(outs[1]) == 0 {
		t.Fatalf("a client sent nothing: %d, %d", len(outs[0]), len(outs[1]))
	}
	if elapsed < 30*time.Millisecond {
		t.Errorf("elapsed %v shorter than the window", elapsed)
	}
}

func TestSelfTimeSubtractsCoveredChildInterval(t *testing.T) {
	spans := []span{
		{Name: "request", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps a
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120}, // outlives parent
		{Name: "d", ID: 5, Parent: 2, Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	s := tr.start("x", span{}, 1)
	tr.end(s)
	tr.wrap("y", s, 1, func() {})
	live := newTracer()
	root := live.start("root", span{}, 7)
	live.wrap("child", root, 7, func() {})
	live.end(root)
	got := live.finished()
	if len(got) != 2 || got[0].Parent != root.ID || got[0].Req != 7 || got[1].Parent != 0 {
		t.Errorf("spans = %+v", got)
	}
}

func TestSeedDeterminesRequestAndUpdateSequences(t *testing.T) {
	a, b := newPointPlan(5, 29524, 2*time.Second), newPointPlan(5, 29524, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("point plan differs for one seed")
	}
	if c := newPointPlan(6, 29524, 2*time.Second); reflect.DeepEqual(a.sources, c.sources) {
		t.Error("point sources equal across seeds")
	}
	m1, m2 := newMutatePlan(5, time.Second), newMutatePlan(5, time.Second)
	if !reflect.DeepEqual(m1, m2) {
		t.Error("mutate plan differs for one seed")
	}
	if m3 := newMutatePlan(6, time.Second); reflect.DeepEqual(m1.ops, m3.ops) {
		t.Error("update stream equal across seeds")
	}
	// Zipf draws over a permutation: the top source is not vertex 0.
	counts := map[int64]int{}
	for _, s := range a.sources {
		counts[s]++
	}
	if len(counts) < 128 {
		t.Errorf("only %d distinct sources; the prepared LRU would hold them all", len(counts))
	}
}

// Each oracle must agree with internal/naive, the repository's reference
// evaluator, on graphs small enough for it.
func TestOraclesMatchNaive(t *testing.T) {
	g := datasets.Gnp(60, 150, 3)
	tree := datasets.Tree(3, 2, 3, 3)
	w := datasets.Weight(datasets.Undirect(g), 20, 3)
	cases := []struct {
		q      queries.Query
		edb    map[string][]storage.Tuple
		params map[string]storage.Value
		oracle []row
	}{
		{queries.TC(), arcs(g), nil, tcRows(g)},
		{queries.CC(), arcs(g), nil, ccRows(g)},
		{queries.CC(), arcs(datasets.Undirect(g)), nil, ccRows(datasets.Undirect(g))},
		{queries.SG(), arcs(tree), nil, sgRows(tree)},
		{queries.SG(), arcs(g), nil, sgRows(g)},
		{queries.SSSP(), map[string][]storage.Tuple{"warc": datasets.WEdgeTuples(w)},
			map[string]storage.Value{"start": storage.IntVal(w[0].Src)}, ssspRows(w, w[0].Src)},
	}
	for _, c := range cases {
		schemas := map[string]*storage.Schema{}
		for _, s := range c.q.EDB {
			schemas[s.Name] = s
		}
		types := map[string]storage.Type{}
		for k := range c.params {
			types[k] = storage.TInt
		}
		a, err := pcg.Analyze(parser.MustParse(c.q.Source), schemas, types)
		if err != nil {
			t.Fatal(err)
		}
		out, err := naive.Eval(a, c.edb, nil, c.params)
		if err != nil {
			t.Fatal(err)
		}
		want := tupleRows(out[c.q.Output])
		if digest(c.oracle) != digest(want) {
			t.Errorf("%s: oracle %d rows, naive %d rows", c.q.Name, len(c.oracle), len(want))
		}
	}
}

func TestReachCountsMatchTreeSubtrees(t *testing.T) {
	edges := datasets.Tree(4, 2, 2, 1) // complete binary tree, 31 vertices
	want := reachCounts(edges, []int64{0, 1, 3, 7, 15})
	for v, n := range map[int64]int{0: 30, 1: 14, 3: 6, 7: 2, 15: 0} {
		if want[v] != n {
			t.Errorf("reach(%d) = %d, want %d", v, want[v], n)
		}
	}
}

func arcs(edges []datasets.Edge) map[string][]storage.Tuple {
	return map[string][]storage.Tuple{"arc": datasets.EdgeTuples(edges)}
}

// BENCHMARK.json must list exactly the metrics a run prints.
func TestBenchmarkSpecListsReportedMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = x.Name
		}
		return out
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end = %v, code reports %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer = %v, code reports %v", got, perLayer)
	}
	for _, w := range names(spec.Workloads) {
		if workloads[w] == nil {
			t.Errorf("workload %s has no runner", w)
		}
	}
}
