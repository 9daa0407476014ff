package bench

import (
	"encoding/json"
	"io"
	"runtime"

	dcdatalog "repro"
	"repro/internal/datasets"
	"repro/internal/queries"
)

// BenchPoint is one machine-readable measurement in the repo's
// perf-trajectory record (BENCH_pr*.json): a query × dataset × worker
// count cell, comparable across PRs.
type BenchPoint struct {
	Query   string  `json:"query"`
	Dataset string  `json:"dataset"`
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	// SetupNS is the pre-evaluation setup time (base-relation
	// registration + index builds) in nanoseconds; Seconds includes it.
	SetupNS int64  `json:"setup_ns"`
	Tuples  int    `json:"tuples"`
	Note    string `json:"note,omitempty"`
	// Probe-path counters (PR7): how the tagged directories, audited
	// buckets and Bloom guards behaved during the run. Counts are raw;
	// the *_rate fields are the derived ratios cmd/bench prints.
	ProbeTagProbes     int64   `json:"probe_tag_probes"`
	ProbeTagRejects    int64   `json:"probe_tag_rejects"`
	ProbeKeyCompares   int64   `json:"probe_key_compares"`
	ProbeKeySkips      int64   `json:"probe_key_skips"`
	ProbeBloomChecks   int64   `json:"probe_bloom_checks"`
	ProbeBloomSkips    int64   `json:"probe_bloom_skips"`
	ProbeTagRejectRate float64 `json:"probe_tag_reject_rate"`
	ProbeKeySkipRate   float64 `json:"probe_key_skip_rate"`
	ProbeBloomSkipRate float64 `json:"probe_bloom_skip_rate"`
	// Imbalance is max/mean per-worker busy time — 1.0 is perfectly
	// balanced. It measures how evenly hash partitioning split the
	// work; the hub-skewed cell is where it strays furthest from 1.
	Imbalance float64 `json:"imbalance"`
	// IVM counters (PR9): materialized-view refresh wall time and
	// delta-kernel output for the "TC-IVM" sweep cells; zero elsewhere.
	IvmRefreshNS   int64 `json:"ivm_refresh_ns,omitempty"`
	IvmDeltaTuples int   `json:"ivm_delta_tuples,omitempty"`
	// Demand counters (PR10): whether the magic-set rewrite fired for
	// this cell (0/1, always emitted so the smoke check can assert the
	// field exists) and the planner's estimated vs the engine's actual
	// derivation counts for the estimable strata.
	DemandRewritten    int   `json:"demand_rewritten"`
	DemandEstTuples    int64 `json:"demand_est_tuples,omitempty"`
	DemandActualTuples int64 `json:"demand_actual_tuples,omitempty"`
}

// trackJob is one query × dataset cell of the fixed tracking suite.
type trackJob struct {
	query  queries.Query
	dsName string
	ds     dataset
}

// trackingJobs builds the suite's deterministic workloads (TC, CC,
// SSSP, SG), shared by Trajectory and SetupReport.
func trackingJobs(cfg Config) []trackJob {
	var jobs []trackJob

	tcEdges := datasets.RMATn(cfg.scaled(512), cfg.Seed)
	jobs = append(jobs, trackJob{queries.TC(), "rmat-512", dataset{load: loadArcs(tcEdges)}})

	ccEdges := datasets.Undirect(datasets.Gnp(cfg.scaled(8000), int(cfg.scaled(20000)), cfg.Seed))
	jobs = append(jobs, trackJob{queries.CC(), "gnp-8k", dataset{load: loadArcs(ccEdges)}})

	ssspEdges := datasets.Undirect(datasets.RMATn(cfg.scaled(16000), cfg.Seed))
	wedges := datasets.Weight(ssspEdges, 100, cfg.Seed)
	jobs = append(jobs, trackJob{queries.SSSP(), "rmat-16k", dataset{
		load: loadWArcs(wedges),
		opts: []dcdatalog.Option{dcdatalog.WithParam("start", whub(wedges))},
	}})

	sgEdges := datasets.Tree(6, 2, 3, cfg.Seed)
	jobs = append(jobs, trackJob{queries.SG(), "tree-6", dataset{load: loadArcs(sgEdges)}})

	// Hub-skewed cell: a Zipf-sourced graph whose top hubs own most of
	// the out-edges, so the partitions holding the hubs' join keys
	// receive most of each recursive delta. It tracks how the DWS
	// schedule copes with skewed partitions (see the imbalance field);
	// the uniform cells above are its balanced counterpart.
	hubEdges := datasets.Undirect(datasets.Hub(cfg.scaled(4000), int(cfg.scaled(24000)), 1.3, cfg.Seed))
	jobs = append(jobs, trackJob{queries.CC(), "hub-4k", dataset{load: loadArcs(hubEdges)}})

	// Bound point-query cells (PR10): single-source variants whose
	// consumer rule binds the recursion to a parameter, so the demand
	// rewrite can seed the fixpoint instead of computing the full
	// closure. The source is the graph's hub vertex — deterministic in
	// the seed, and the worst case for the unrewritten program.
	jobs = append(jobs, trackJob{queries.BoundTC(), "rmat-512", dataset{
		load: loadArcs(tcEdges),
		opts: []dcdatalog.Option{dcdatalog.WithParam("src", datasets.HubVertex(tcEdges))},
	}})
	// The SG source is the root's first child, not the hub: the tree's
	// hub is the root, which has no same-generation peers.
	jobs = append(jobs, trackJob{queries.BoundSG(), "tree-6", dataset{
		load: loadArcs(sgEdges),
		opts: []dcdatalog.Option{dcdatalog.WithParam("v", sgEdges[0].Dst)},
	}})

	return jobs
}

// Trajectory runs the fixed tracking suite — TC, CC, SSSP and SG under
// DWS at 1, 4, 8 and 16 workers — and returns the points. The datasets
// are deterministic in cfg.Seed so successive PRs measure identical
// workloads.
func Trajectory(cfg Config) []BenchPoint {
	cfg = cfg.withDefaults()
	workerCounts := []int{1, 4, 8, 16}

	var points []BenchPoint
	for _, j := range trackingJobs(cfg) {
		for _, w := range workerCounts {
			// Settle the heap between cells so one cell's garbage (and
			// the GC pacing it induced) cannot bleed into the next
			// measurement — without this, adding a cell to the suite
			// shifts the timings of every cell after it.
			runtime.GC()
			runtime.GC()
			m := run(j.ds, j.query.Source, j.query.Output, dcdatalog.WithWorkers(w))
			points = append(points, BenchPoint{
				Query:              j.query.Name,
				Dataset:            j.dsName,
				Workers:            w,
				Seconds:            m.seconds,
				SetupNS:            m.setupNS,
				Tuples:             m.tuples,
				Note:               m.note,
				ProbeTagProbes:     m.probe.TagProbes,
				ProbeTagRejects:    m.probe.TagRejects,
				ProbeKeyCompares:   m.probe.KeyCompares,
				ProbeKeySkips:      m.probe.KeySkips,
				ProbeBloomChecks:   m.probe.BloomChecks,
				ProbeBloomSkips:    m.probe.BloomSkips,
				ProbeTagRejectRate: m.probe.TagRejectRate(),
				ProbeKeySkipRate:   m.probe.KeySkipRate(),
				ProbeBloomSkipRate: m.probe.BloomSkipRate(),
				Imbalance:          m.imbalance,
				DemandRewritten:    boolInt(m.demandRewritten),
				DemandEstTuples:    m.demandEst,
				DemandActualTuples: m.demandActual,
			})
		}
	}
	// The IVM sweep (PR9): incremental refresh vs full recompute on the
	// TC tracking cell across delta sizes.
	points = append(points, ivmPoints(cfg)...)
	return points
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// WriteTrajectoryJSON renders the points as indented JSON.
func WriteTrajectoryJSON(w io.Writer, points []BenchPoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(points)
}
