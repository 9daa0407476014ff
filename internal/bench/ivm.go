package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	dcdatalog "repro"
	"repro/internal/datasets"
	"repro/internal/queries"
)

// ivmCell is one delta size of the incremental-vs-recompute sweep:
// absolute batch sizes probe the small-delta regime the view exists
// for, fractional ones walk churn up past the incremental/full
// crossover.
type ivmCell struct {
	label   string
	ops     int
	insFrac float64
}

func ivmSweep(edgeCount int) []ivmCell {
	// The single-op cells pin the two edge regimes (a pure insertion
	// rides the delta kernel, a pure deletion may trip the over-delete
	// budget); the rest are balanced insert/delete mixes.
	cells := []ivmCell{{"+1", 1, 1}, {"-1", 1, 0}, {"16", 16, 0.5}, {"256", 256, 0.5}}
	for _, f := range []struct {
		label string
		den   int
	}{{"1%", 100}, {"10%", 10}, {"100%", 1}} {
		n := edgeCount / f.den
		if n < 1 {
			n = 1
		}
		cells = append(cells, ivmCell{f.label, n, 0.5})
	}
	return cells
}

// ivmMeasurement is one delta size's interleaved A/B result.
type ivmMeasurement struct {
	cell        ivmCell
	incrNS      int64  // median refresh time, maintained arm
	fullNS      int64  // median refresh time, recompute arm
	mode        string // how the maintained arm actually refreshed
	deltaTuples int    // delta-kernel output of the maintained arm
}

// ivmArm is one database + materialized TC view.
type ivmArm struct {
	db   *dcdatalog.Database
	view *dcdatalog.View
}

func newIvmArm(edges []datasets.Edge, workers int, crossover float64) ivmArm {
	db := dcdatalog.NewDatabase()
	loadArcs(edges)(db)
	q := queries.TC()
	opts := []dcdatalog.Option{dcdatalog.WithWorkers(workers)}
	if crossover != 0 {
		opts = append(opts, dcdatalog.WithCrossover(crossover))
	}
	v, err := db.Materialize("tc", q.Source, opts...)
	if err != nil {
		panic(err)
	}
	return ivmArm{db: db, view: v}
}

// apply feeds a stream through the mutation path in order (an op may
// delete an edge an earlier op of the same batch inserted).
func (a ivmArm) apply(ops []datasets.UpdateOp) {
	for _, op := range ops {
		t := datasets.EdgeTuples([]datasets.Edge{op.Edge})
		var err error
		if op.Delete {
			err = a.db.DeleteTuples("arc", t)
		} else {
			err = a.db.InsertTuples("arc", t)
		}
		if err != nil {
			panic(err)
		}
	}
}

// refresh times one view refresh.
func (a ivmArm) refresh() (dcdatalog.RefreshStats, int64) {
	start := time.Now()
	st, err := a.view.Refresh(context.Background())
	if err != nil {
		panic(err)
	}
	return st, time.Since(start).Nanoseconds()
}

// invert reverses a stream so applying it rolls the EDB back to the
// state before the batch.
func invert(ops []datasets.UpdateOp) []datasets.UpdateOp {
	out := make([]datasets.UpdateOp, len(ops))
	for i, op := range ops {
		out[len(ops)-1-i] = datasets.UpdateOp{Edge: op.Edge, Delete: !op.Delete}
	}
	return out
}

func median(ns []int64) int64 {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return ns[len(ns)/2]
}

// ivmMeasure runs the sweep on TC over rmat-512: per delta size,
// interleaved A/B reps of (apply batch, refresh) on a maintained view
// versus a crossover-disabled twin whose every refresh is a full
// recompute, each rep rolled back by the inverted batch so all reps
// see the same EDB.
func ivmMeasure(cfg Config, reps int) []ivmMeasurement {
	cfg = cfg.withDefaults()
	edges := datasets.RMATn(cfg.scaled(512), cfg.Seed)
	n := cfg.scaled(512)

	incr := newIvmArm(edges, cfg.Workers, 0)  // default crossover
	full := newIvmArm(edges, cfg.Workers, -1) // incremental disabled

	var out []ivmMeasurement
	for ci, cell := range ivmSweep(len(edges)) {
		batch := datasets.UpdateStream(edges, n, cell.ops, cell.insFrac, 0, cfg.Seed+int64(ci)+1)
		if cell.label == "+1" {
			// A pendant source keeps the single-insertion cell honest:
			// vertex n is outside the graph, so tc(n, ·) tuples are
			// guaranteed fresh and the refresh does real delta work
			// instead of detecting a no-op.
			batch = []datasets.UpdateOp{{Edge: datasets.Edge{Src: n, Dst: edges[0].Src}}}
		}
		rollback := invert(batch)
		m := ivmMeasurement{cell: cell}
		var incrNS, fullNS []int64
		for rep := 0; rep < reps; rep++ {
			runtime.GC()
			incr.apply(batch)
			st, ns := incr.refresh()
			incrNS = append(incrNS, ns)
			m.mode, m.deltaTuples = st.Mode, st.DeltaTuples
			incr.apply(rollback)
			incr.refresh()

			full.apply(batch)
			_, ns = full.refresh()
			fullNS = append(fullNS, ns)
			full.apply(rollback)
			full.refresh()
		}
		m.incrNS, m.fullNS = median(incrNS), median(fullNS)
		out = append(out, m)
	}
	return out
}

// IvmReport renders the incremental-vs-recompute sweep as a table.
func IvmReport(cfg Config) *Table {
	t := &Table{
		Title:  "IVM: incremental refresh vs full recompute (TC, rmat-512)",
		Header: []string{"delta", "ops", "mode", "delta-tuples", "incremental", "recompute", "speedup"},
		Notes: []string{
			"interleaved A/B reps, median refresh time; each rep rolled back by the inverted batch",
			"the maintained arm falls back to a full recompute above the churn crossover (default 0.3)",
		},
	}
	for _, m := range ivmMeasure(cfg, 5) {
		t.Rows = append(t.Rows, []string{
			m.cell.label,
			fmt.Sprintf("%d", m.cell.ops),
			m.mode,
			fmt.Sprintf("%d", m.deltaTuples),
			cell(float64(m.incrNS)/1e9, ""),
			cell(float64(m.fullNS)/1e9, ""),
			fmt.Sprintf("%.1fx", float64(m.fullNS)/float64(m.incrNS)),
		})
	}
	return t
}
