// Command perfbench is the repository's end-to-end benchmark. Each
// workload generates its inputs from --seed, starts the query service
// (internal/server) in process on a loopback listener, registers the
// inputs through POST /v1/datasets and drives requests over HTTP. With
// --trace 1 it also replays the same request sequence in process through
// each layer's public entry points inside spans and reports per-layer
// figures. The last line of standard output is one JSON result object;
// a full record with a self-describing header goes under --out.
//
//	perfbench --workload analytic|point|mutate --seed N --seconds S --trace 0|1
//	perfbench compare <base-dir> <new-dir>
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// The end-to-end metrics every workload reports, and the per-layer ones
// every traced run reports; BENCHMARK.json lists the same names.
var (
	endToEnd = []string{"setup_s", "ops_per_s", "op_p50_ms", "heap_live_mb"}
	perLayer = []string{
		"server.overhead_p50_us", "server.prepared_hit_ratio", "server.admission_wait_p99_ms", "server.late_p99_ms",
		"parser.parse_us", "pcg.analyze_us", "rewrite.apply_us", "plan.build_us", "physical.compile_us",
		"frontend.compiles", "rewrite.applied_ratio",
		"engine.setup_us", "engine.exec_us", "engine.fixpoint_ms",
		"engine.fixpoint_ms.tc", "engine.fixpoint_ms.cc", "engine.fixpoint_ms.sg", "engine.fixpoint_ms.hub_cc", "engine.fixpoint_ms.sssp",
		"engine.busy_share", "engine.wait_share", "engine.imbalance", "engine.steal_success_ratio", "engine.morsels",
		"engine.iterations", "engine.tuples_sent", "engine.tuples_derived", "engine.merge_ratio",
		"storage.tag_reject_rate", "storage.key_skip_rate", "storage.bloom_skip_rate",
		"storage.index_hit_ratio", "storage.index_builds", "storage.mutation_apply_us",
		"ivm.refresh_p50_ms", "ivm.refresh_p99_ms", "ivm.incremental_ratio", "ivm.delta_tuples", "ivm.rederive_ratio",
		"ivm.ins_ms", "ivm.del_ms", "ivm.red_ms",
		"runtime.alloc_kb_per_query", "runtime.gc_cycles", "trace.overhead_pct",
	}
)

var workloads = map[string]func(*runner) error{
	"analytic": runAnalytic,
	"point":    runPoint,
	"mutate":   runMutate,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	name := flag.String("workload", "", "workload: analytic, point or mutate")
	seed := flag.Int64("seed", 1, "seed for every generated input and request sequence")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 adds the traced in-process replay and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "results"), "directory for result records and spans")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload analytic|point|mutate --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	r := newRunner(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err := run(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := r.finish(*out, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *name, err)
		os.Exit(1)
	}
	if !r.correct() {
		os.Exit(1)
	}
}

// header makes a result record self-describing.
type header struct {
	GOOS         string         `json:"goos"`
	GOARCH       string         `json:"goarch"`
	NProc        int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	CPU          string         `json:"cpu"`
	GoVersion    string         `json:"go_version"`
	Commit       string         `json:"commit"`
	SourceDigest string         `json:"source_digest"`
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      float64        `json:"seconds"`
	Trace        bool           `json:"trace"`
	Started      string         `json:"started"`
	StealPct     float64        `json:"cpu_steal_pct"`
	Samples      map[string]int `json:"samples"`
}

// record is one run's full result.
type record struct {
	Header    header            `json:"header"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Layers    map[string]metric `json:"layers,omitempty"`
	SelfTime  map[string]metric `json:"self_time,omitempty"`
}

// runner carries one run's settings and collects what it measures.
type runner struct {
	name    string
	seed    int64
	window  time.Duration
	trace   bool
	conns   int
	started time.Time
	// stealPct is the share of CPU time the hypervisor took during the
	// timed phase.
	stealPct float64

	e2e      *metrics
	layers   *metrics
	selfTime *metrics
	samples  map[string]int
	spans    []span

	attempted, failed int
	errs              []string
}

func newRunner(name string, seed int64, window time.Duration, trace bool) *runner {
	return &runner{
		name: name, seed: seed, window: window, trace: trace,
		conns:    runtime.NumCPU(),
		started:  time.Now(),
		e2e:      newMetrics(),
		layers:   newMetrics(),
		selfTime: newMetrics(),
		samples:  map[string]int{},
	}
}

// check counts one attempted operation and, when err is not nil, one
// failure.
func (r *runner) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 10 {
			r.errs = append(r.errs, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

func (r *runner) correct() bool { return r.failed == 0 }

func (r *runner) header() header {
	h := header{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), GoVersion: runtime.Version(),
		Commit: os.Getenv("PERFBENCH_COMMIT"), SourceDigest: sourceDigest("."),
		Workload: r.name, Seed: r.seed, Seconds: r.window.Seconds(), Trace: r.trace,
		Started: r.started.UTC().Format(time.RFC3339), StealPct: r.stealPct, Samples: r.samples,
	}
	if h.Commit == "" {
		h.Commit = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					h.Commit = s.Value
				}
			}
		}
	}
	return h
}

// finish prints the figures, writes the record (and spans) under dir and
// prints the one-line JSON result last.
func (r *runner) finish(dir string, w io.Writer) error {
	rec := record{
		Header: r.header(), Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Errors: r.errs, Metrics: r.e2e.m,
	}
	if r.trace {
		rec.Layers, rec.SelfTime = r.layers.m, r.selfTime.m
	}
	bw := bufio.NewWriter(w)
	p := func(f string, a ...any) { fmt.Fprintf(bw, f, a...) }
	hb, _ := json.Marshal(rec.Header) // plain struct, cannot fail
	p("# %s\n", hb)
	r.e2e.print(p)
	if r.trace {
		p("# per-layer (traced replay)\n")
		r.layers.print(p)
		p("# self time per span name (median)\n")
		r.selfTime.print(p)
	}
	for _, e := range r.errs {
		p("# error: %s\n", e)
	}

	stamp := fmt.Sprintf("%s-s%d-t%d-%d", r.name, r.seed, btoi(r.trace), r.started.UnixNano())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	recBytes, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stamp+".json"), recBytes, 0o644); err != nil {
		return err
	}
	if r.trace {
		path := filepath.Join(dir, stamp+".spans.jsonl")
		if err := writeSpans(path, r.spans); err != nil {
			return err
		}
		p("# %d spans written to %s\n", len(r.spans), path)
	}

	names, src := endToEnd, r.e2e
	if r.trace {
		names, src = perLayer, r.layers
	}
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), r.failed, map[string]metric{}}
	for _, n := range names {
		m, ok := src.m[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		result.Metrics[n] = metric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	p("%s\n", line)
	return bw.Flush()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cpuModel reads the processor name the kernel reports, if any.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest fingerprints the Go sources under root, so records of a
// checkout without version control still name the code they measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
