package engine

import (
	"runtime"
	"time"

	"repro/internal/coord"
	"repro/internal/storage"
)

// Exchange constants.
const (
	// sspSlack is the SSP staleness bound s (the paper's value).
	sspSlack = 5
	// maxWait caps the DWS wait budget τ and doubles as the
	// deadlock-avoidance timeout of Algorithm 2.
	maxWait = 2 * time.Millisecond
	// queueCap is the capacity (messages) of each SPSC data ring.
	queueCap = 4096
	// recycleCap is the capacity of each frame-recycle ring. Recycle
	// rings only hold frames awaiting reuse, not the full data-ring
	// backlog; overflow drops to the GC, so a small ring keeps
	// steady-state reuse while not doubling the n² ring memory zeroed
	// at every stratum start.
	recycleCap = queueCap / 16
)

// Options configures a parallel evaluation run.
type Options struct {
	// Workers is the number of parallel workers (goroutines); 0 uses
	// GOMAXPROCS.
	Workers int
	// Strategy selects the coordination scheme (Global / SSP / DWS).
	Strategy coord.Kind
	// BatchSize is the number of tuples per exchanged message.
	BatchSize int
	// Epsilon is the convergence threshold for float sum aggregates
	// (PageRank); changes at or below it do not re-enter the delta.
	Epsilon float64
	// MaxLocalIters bounds local iterations per worker per stratum;
	// 0 means run to fixpoint.
	MaxLocalIters int
	// MaxTuples bounds the total tuples exchanged per stratum; 0 means
	// unbounded. Exceeding it drops pending deltas and marks the
	// stratum Capped — the analogue of running out of memory for
	// diverging programs whose blow-up happens inside one iteration.
	MaxTuples int64
	// NoExistCache disables the §6.2.2 existence-check cache
	// (ablation).
	NoExistCache bool
	// NoIndexAgg disables index-assisted extremum merges in favor of
	// the per-batch linear-scan path (§6.2.1 ablation).
	NoIndexAgg bool
	// NoPartialAgg disables partial aggregation in the Distribute
	// operator (ablation).
	NoPartialAgg bool
	// Base, when set, is a shared prepared-base plane: relations it
	// covers skip per-run tuple registration and reuse (or build-once
	// and memoize) their hash indexes across runs. Relations outside
	// the base still come from the edb argument and build cold.
	Base *PreparedBase
	// Probers maps virtual relation names to caller-owned membership
	// oracles. A probed relation carries no tuples: every occurrence in
	// the program must be a fully-bound stratified negation (validated
	// at run start), and its anti-join probes dispatch straight to
	// MembershipProber.ContainsTuple. The ivm plane uses this to let
	// generated delta rules guard on a view's live fixpoint without
	// snapshotting or indexing it per refresh.
	Probers map[string]MembershipProber

	// stageAlways drops the staged probe pipeline's size gate
	// (pipelineMinRows) so small test inputs exercise the staged path.
	// Unexported: only this package's tests set it.
	stageAlways bool
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
	if o.Epsilon == 0 {
		o.Epsilon = 1e-9
	}
	return o
}

// StealStats is always zero: the engine has no work-stealing
// scheduler. It is kept, with Stats.Steal, only because the perfbench
// benchmark module still reads it for its engine.morsels and
// engine.steal_success_ratio metrics; delete both once a benchmark
// change drops those metrics.
type StealStats struct {
	MorselsExecuted, MorselsStolen, Attempts int64
}

// Add accumulates o into s.
func (s *StealStats) Add(o StealStats) {
	s.MorselsExecuted += o.MorselsExecuted
	s.MorselsStolen += o.MorselsStolen
	s.Attempts += o.Attempts
}

// imbalance is max/mean over per-worker busy time; 1.0 is perfectly
// balanced, and 0 means no busy time was recorded at all.
func imbalance(busy []time.Duration) float64 {
	if len(busy) == 0 {
		return 0
	}
	var sum, max time.Duration
	for _, b := range busy {
		sum += b
		if b > max {
			max = b
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(busy))
	return float64(max) / mean
}

// StratumStats describes one stratum's execution.
type StratumStats struct {
	Preds          []string
	Recursive      bool
	LocalIters     []int64 // per worker
	TuplesSent     int64   // through SPSC buffers
	TuplesDerived  int64   // kernel output volume incl. self-bound
	TuplesMerged   int64   // replica state changes
	WaitTime       []time.Duration
	Duration       time.Duration
	ResultTuples   map[string]int
	GlobalBarriers int64 // Global strategy rounds
	// Capped reports that MaxLocalIters fired with deltas still
	// pending: the fixpoint was NOT reached (benchmarks report this as
	// the OOM/DNF analogue for diverging baselines).
	Capped bool
	// Probe sums the workers' memory-level probe counters — tag-lane
	// rejects, audited key-compare skips, Bloom-guard skips — for this
	// stratum.
	Probe storage.ProbeCounters
	// BusyTime is per-worker evaluation time: kernel execution over
	// seeds and local deltas, excluding gathers, gates and parked
	// waiting. Its spread measures how evenly hash partitioning split
	// the work.
	BusyTime []time.Duration
}

// Imbalance is the stratum's busy-time imbalance ratio (max/mean); 1.0
// is perfectly balanced.
func (s *StratumStats) Imbalance() float64 { return imbalance(s.BusyTime) }

// Stats summarizes a run.
type Stats struct {
	Workers  int
	Strategy coord.Kind
	// SetupDuration is the pre-evaluation cost: registering the base
	// relations and building (or attaching from a shared PreparedBase)
	// their hash indexes. A warm run against a prepared base spends
	// orders of magnitude less here than a cold one.
	SetupDuration time.Duration
	// Duration is the evaluation time proper — fixpoint plus
	// materialization — excluding SetupDuration.
	Duration time.Duration
	Strata   []StratumStats
	// Probe sums the per-stratum probe counters over the whole run.
	Probe storage.ProbeCounters
	// Steal is always zero; see StealStats.
	Steal StealStats
}

// BusyTime sums each worker's evaluation time over all strata.
func (s *Stats) BusyTime() []time.Duration {
	busy := make([]time.Duration, s.Workers)
	for _, st := range s.Strata {
		for i, b := range st.BusyTime {
			if i < len(busy) {
				busy[i] += b
			}
		}
	}
	return busy
}

// Imbalance is the run-wide busy-time imbalance ratio (max/mean busy
// over workers, busy summed across strata); 1.0 is perfectly balanced,
// 0 means nothing was measured.
func (s *Stats) Imbalance() float64 { return imbalance(s.BusyTime()) }

// TotalIters sums local iterations over all workers and strata.
func (s *Stats) TotalIters() int64 {
	var n int64
	for _, st := range s.Strata {
		for _, it := range st.LocalIters {
			n += it
		}
	}
	return n
}

// Result is the output of a run: every IDB relation materialized, plus
// execution statistics.
type Result struct {
	Relations map[string][]storage.Tuple
	Stats     Stats
}
