package engine

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/coord"
	"repro/internal/datasets"
	"repro/internal/storage"
)

// hubEdges builds a hub-skewed arc relation: Zipf-distributed sources
// concentrate most out-edges on a few nodes, so the hash partitions
// holding the hubs' join keys receive most of each recursive delta.
func hubEdges(n int64, m int, seed int64) [][2]int64 {
	var edges [][2]int64
	for _, e := range datasets.Hub(n, m, 1.5, seed) {
		edges = append(edges, [2]int64{e.Src, e.Dst})
	}
	return edges
}

// TestStealDifferentialSkewed runs TC over a hub-skewed graph under
// every strategy and several worker counts and requires the result to
// equal a BFS reachability reference. Skew concentrates the recursive
// deltas on the workers owning the hubs' partitions, the load shape
// most likely to expose an ownership or termination bug.
func TestStealDifferentialSkewed(t *testing.T) {
	edges := hubEdges(300, 1500, 11)
	var want []string
	for p := range refTC(edges) {
		want = append(want, fmt.Sprintf("%d,%d", p[0], p[1]))
	}
	sort.Strings(want)

	prog := compileSrc(t, tcSrc, arcSchemas(), nil)
	edb := map[string][]storage.Tuple{"arc": pairs(edges)}
	for _, strat := range []coord.Kind{coord.Global, coord.SSP, coord.DWS} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s-w%d", strat, workers), func(t *testing.T) {
				res, err := Run(prog, edb, Options{Workers: workers, Strategy: strat})
				if err != nil {
					t.Fatal(err)
				}
				got := sortedRows(res.Relations["tc"])
				if len(got) != len(want) {
					t.Fatalf("tc size = %d, want %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("row %d: %s vs %s", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestStealStatsSkewed checks the load-balance observability surface on
// a skewed 4-worker run: per-worker busy time covers every worker, the
// imbalance ratio is at least 1, and the work-stealing counters kept as
// a compatibility shim stay zero.
func TestStealStatsSkewed(t *testing.T) {
	prog := compileSrc(t, tcSrc, arcSchemas(), nil)
	edb := map[string][]storage.Tuple{"arc": pairs(hubEdges(600, 6000, 13))}
	opts := Options{Workers: 4, Strategy: coord.DWS}
	res, err := Run(prog, edb, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Stats.BusyTime()); got != opts.Workers {
		t.Fatalf("BusyTime() has %d entries, want %d", got, opts.Workers)
	}
	// Imbalance is 0 only when no busy time was recorded at all;
	// otherwise max/mean over the workers is at least 1.
	if ib := res.Stats.Imbalance(); ib != 0 && ib < 1-1e-9 {
		t.Fatalf("Imbalance() = %v, want >= 1", ib)
	}
	if res.Stats.Steal != (StealStats{}) {
		t.Fatalf("Stats.Steal = %+v, want zero", res.Stats.Steal)
	}
}
