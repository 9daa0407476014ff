package bench

import (
	"fmt"
	"runtime"
	"sort"

	dcdatalog "repro"
	"repro/internal/datasets"
	"repro/internal/queries"
)

// demandReps is how many interleaved repetitions each A/B cell pools.
// Interleaving (on, off, on, off, ...) instead of batching makes the
// comparison robust against drift — thermal, GC pacing, or a noisy
// neighbour hits both arms equally.
const demandReps = 12

// DemandReport measures what the demand (magic-set) rewrite buys on the
// bound point-query cells, A/B against WithoutDemandRewrite() on the
// same data. The unbound TC cell is the no-regression control: the
// rewrite declines there, so both arms should be within noise.
func DemandReport(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  fmt.Sprintf("Demand rewrite on vs off (%d interleaved reps, %d workers)", demandReps, cfg.Workers),
		Header: []string{"Query", "Dataset", "Rewritten", "On", "Off", "Speedup", "Tuples on/off"},
		Notes: []string{
			"On/Off = median wall time over interleaved reps with and without the demand rewrite",
			"Rewritten = whether the rewrite actually fired for the on arm (unbound cells decline)",
			"Tuples counts the output relation; bound cells restrict the recursive predicate, not the output",
		},
	}

	type abJob struct {
		query  queries.Query
		dsName string
		ds     dataset
	}
	var jobs []abJob

	tcEdges := datasets.RMATn(cfg.scaled(512), cfg.Seed)
	jobs = append(jobs, abJob{queries.BoundTC(), "rmat-512", dataset{
		load: loadArcs(tcEdges),
		opts: []dcdatalog.Option{dcdatalog.WithParam("src", datasets.HubVertex(tcEdges))},
	}})

	// The SG source is the root's first child — the root itself has no
	// same-generation peers.
	sgEdges := datasets.Tree(6, 2, 3, cfg.Seed)
	jobs = append(jobs, abJob{queries.BoundSG(), "tree-6", dataset{
		load: loadArcs(sgEdges),
		opts: []dcdatalog.Option{dcdatalog.WithParam("v", sgEdges[0].Dst)},
	}})

	// Control: unbound TC on the same graph. The rewrite declines (no
	// external bound site), so any on/off gap here is measurement noise
	// or an ordering regression.
	jobs = append(jobs, abJob{queries.TC(), "rmat-512", dataset{load: loadArcs(tcEdges)}})

	for _, j := range jobs {
		base := []dcdatalog.Option{dcdatalog.WithWorkers(cfg.Workers)}
		var on, off []float64
		var onM, offM measurement
		for rep := 0; rep < demandReps; rep++ {
			runtime.GC()
			runtime.GC()
			onM = run(j.ds, j.query.Source, j.query.Output, base...)
			if onM.note != "" {
				break
			}
			on = append(on, onM.seconds)
			runtime.GC()
			runtime.GC()
			offM = run(j.ds, j.query.Source, j.query.Output,
				append(append([]dcdatalog.Option(nil), base...), dcdatalog.WithoutDemandRewrite())...)
			if offM.note != "" {
				break
			}
			off = append(off, offM.seconds)
		}
		if onM.note != "" || offM.note != "" {
			note := onM.note
			if note == "" {
				note = offM.note
			}
			t.Rows = append(t.Rows, []string{j.query.Name, j.dsName, "-", note, note, "-", "-"})
			continue
		}
		mOn, mOff := medianSecs(on), medianSecs(off)
		rewritten := "no"
		if onM.demandRewritten {
			rewritten = "yes"
		}
		t.Rows = append(t.Rows, []string{
			j.query.Name, j.dsName, rewritten,
			cell(mOn, ""), cell(mOff, ""),
			fmt.Sprintf("%.1fx", mOff/mOn),
			fmt.Sprintf("%d/%d", onM.tuples, offM.tuples),
		})
	}
	return t
}

// medianSecs is the median of a non-empty sample of wall times.
func medianSecs(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
