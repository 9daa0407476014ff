package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"time"

	dcdatalog "repro"
	"repro/internal/datasets"
	"repro/internal/server"
)

// setupService starts a fresh service reps times, registers the inputs on
// each and keeps the last one; setup_s is the median registration time.
func (r *runner) setupService(reps int, register func(*service) error) (*service, error) {
	var secs timing
	var svc *service
	for i := 0; i < reps; i++ {
		if svc != nil {
			svc.stop()
			svc = nil
			runtime.GC()
		}
		s, err := startService(r.conns)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if err := register(s); err != nil {
			s.stop()
			return nil, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t).Seconds())
		svc = s
	}
	r.e2e.set("setup_s", metric{Value: percentile(secs, 50), Unit: "s", N: len(secs)})
	return svc, nil
}

// register posts one dataset.
func register(ctx context.Context, s *service, name string, rels ...server.RelationSpec) error {
	var reply map[string]any
	return s.post(ctx, "/v1/datasets", mustJSON(datasetReq{Name: name, Relations: rels}), &reply)
}

// runtimeCounters reads the allocation and GC totals.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// heapSampler samples, while a phase runs, the live heap the last
// completed GC cycle marked: its peak, and its median, which unlike the
// peak does not depend on which requests happened to be in flight when
// one collection ran.
type heapSampler struct {
	stop, done chan struct{}
	live       timing
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(s)
			h.live = append(h.live, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the median and peak in MiB.
func (h *heapSampler) finish() (median, peak float64) {
	close(h.stop)
	<-h.done
	return h.live.p50(), percentile(h.live, 100)
}

// measured runs one timed phase with the heap sampler on, and notes in
// the header how much CPU time the hypervisor took from the machine
// meanwhile, a cause of noise the benchmark cannot remove.
func (r *runner) measured(phase func()) {
	runtime.GC()
	h := startHeapSampler()
	steal0, total0 := cpuSteal()
	phase()
	steal1, total1 := cpuSteal()
	r.stealPct = 100 * ratio(float64(steal1-steal0), float64(total1-total0))
	median, peak := h.finish()
	r.e2e.val("heap_live_mb", median, "MB")
	r.e2e.val("heap_peak_mb", peak, "MB")
}

// cpuSteal reads the machine's stolen and total CPU ticks, or zeros where
// the kernel does not report them.
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// sloPct is the share of sent operations that succeeded within limit.
func sloPct(outs []outcome, limit time.Duration) float64 {
	ok := 0
	for _, o := range outs {
		if o.Err == nil && o.Lat <= limit {
			ok++
		}
	}
	return 100 * ratio(float64(ok), float64(len(outs)))
}

// lats returns the successful outcomes' latencies in ms.
func lats(outs []outcome) timing {
	t := make(timing, 0, len(outs))
	for _, o := range outs {
		if o.Err == nil {
			t = append(t, float64(o.Lat)/1e6)
		}
	}
	return t
}

func (r *runner) errorPct() {
	r.e2e.val("error_pct", 100*ratio(float64(r.failed), float64(r.attempted)), "%")
}

// arcSpec encodes edges as an arc(int, int) relation of inline TSV.
func arcSpec(name string, edges []datasets.Edge) server.RelationSpec {
	b := make([]byte, 0, len(edges)*12)
	for _, e := range edges {
		b = strconv.AppendInt(b, e.Src, 10)
		b = append(b, '\t')
		b = strconv.AppendInt(b, e.Dst, 10)
		b = append(b, '\n')
	}
	return server.RelationSpec{Name: name, Types: []string{"int", "int"}, Data: string(b)}
}

// warcSpec encodes weighted edges as a warc(int, int, int) relation.
func warcSpec(edges []datasets.WEdge) server.RelationSpec {
	b := make([]byte, 0, len(edges)*16)
	for _, e := range edges {
		b = strconv.AppendInt(b, e.Src, 10)
		b = append(b, '\t')
		b = strconv.AppendInt(b, e.Dst, 10)
		b = append(b, '\t')
		b = strconv.AppendInt(b, e.W, 10)
		b = append(b, '\n')
	}
	return server.RelationSpec{Name: "warc", Types: []string{"int", "int", "int"}, Data: string(b)}
}

// relabel renames the vertices 0..n-1 by a seeded permutation.
func relabel(edges []datasets.Edge, n int64, seed int64) []datasets.Edge {
	perm := rand.New(rand.NewSource(seed)).Perm(int(n))
	out := make([]datasets.Edge, len(edges))
	for i, e := range edges {
		out[i] = datasets.Edge{Src: int64(perm[e.Src]), Dst: int64(perm[e.Dst])}
	}
	return out
}

// zipfSources draws count sources Zipf-distributed over a seeded
// permutation of the n vertices, so popular sources are spread over the
// graph rather than clustered at low ids.
func zipfSources(seed int64, n int64, exponent float64, count int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(int(n))
	z := rand.NewZipf(rng, exponent, 1, uint64(n-1))
	out := make([]int64, count)
	for i := range out {
		out[i] = int64(perm[z.Uint64()])
	}
	return out
}

// call is one HTTP request of a timed phase.
type call struct {
	kind     string
	out      outcome
	rtt      time.Duration // the HTTP round trip alone
	serverMS float64       // duration_ms the service reported
	cached   bool
	query    bool
}

// tracedPhase runs a traced HTTP phase and returns its calls with the
// allocation bytes and GC cycles it cost.
func tracedPhase(phase func() []call) ([]call, uint64, uint64) {
	a0, g0 := runtimeCounters()
	calls := phase()
	a1, g1 := runtimeCounters()
	return calls, a1 - a0, g1 - g0
}

// httpLayers records the service-side figures read off a traced HTTP
// phase: the round trip beyond what the service reports as execution,
// the prepared-cache hit share, open-loop lateness and runtime costs.
func (r *runner) httpLayers(calls []call, allocs, gcs uint64, late []outcome) {
	var over timing
	hits, queriesN := 0, 0
	for _, c := range calls {
		r.check("traced "+c.kind, c.out.Err)
		if !c.query || c.out.Err != nil {
			continue
		}
		queriesN++
		over = append(over, float64(c.rtt)/1e3-c.serverMS*1e3)
		if c.cached {
			hits++
		}
	}
	L := r.layers
	L.set("server.overhead_p50_us", metric{Value: over.p50(), Unit: "us", N: len(over)})
	L.val("server.prepared_hit_ratio", ratio(float64(hits), float64(queriesN)), "ratio")
	var lateT timing
	for _, o := range late {
		lateT = append(lateT, float64(o.Late)/1e6)
	}
	v, p := lateT.tail()
	L.set("server.late_p99_ms", metric{Value: v, Unit: "ms", N: len(lateT), Pct: p})
	L.val("runtime.alloc_kb_per_query", ratio(float64(allocs)/1024, float64(len(calls))), "KiB")
	L.val("runtime.gc_cycles", float64(gcs), "count")
}

// sumBase adds up the datasets' index-cache counters.
func sumBase(dss []*server.Dataset) (total dcdatalog.BaseStats) {
	for _, ds := range dss {
		st := ds.DB().BaseStats()
		total.Hits += st.Hits
		total.Misses += st.Misses
	}
	return total
}
