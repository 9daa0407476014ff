package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/coord"
	"repro/internal/physical"
	"repro/internal/storage"
)

// Tests for the staged probe pipeline, the tag/audit counters and the
// Bloom guards. The pipeline only stages rules whose first join probes
// a base index of at least pipelineMinRows (2^19) rows, so the
// differential and kernel-coverage suites — all on small inputs — run
// the serial walk.
// The staged path is reached here through Options.stageAlways, which
// drops the size gate.

// fanoutEDB builds a rooted tree with fixed fanout: every internal
// node's bucket in the arc-by-source index holds exactly `fanout` rows,
// so the audited-bucket walk has a deterministic skip profile.
func fanoutEDB(depth, fanout int) map[string][]storage.Tuple {
	var es [][2]int64
	next := int64(1)
	level := []int64{0}
	for d := 0; d < depth; d++ {
		var nl []int64
		for _, p := range level {
			for c := 0; c < fanout; c++ {
				es = append(es, [2]int64{p, next})
				nl = append(nl, next)
				next++
			}
		}
		level = nl
	}
	return map[string][]storage.Tuple{"arc": pairs(es)}
}

// stagedSerialConfigs is the staged-vs-serial matrix: 1 and 4 workers
// under every strategy, each once with the size gate in force (the
// small inputs below take the serial walk) and once with it dropped.
func stagedSerialConfigs() []Options {
	var out []Options
	for _, k := range []coord.Kind{coord.Global, coord.SSP, coord.DWS} {
		for _, w := range []int{1, 4} {
			for _, staged := range []bool{false, true} {
				out = append(out, Options{Workers: w, Strategy: k, BatchSize: 8, stageAlways: staged})
			}
		}
	}
	return out
}

// TestPipelineStagedMatchesNaive drives TC, SG and a weighted
// SSSP-shaped program through the staged pipeline and the serial walk,
// under every strategy at 1 and 4 workers; both must agree with the
// independent naive oracle.
func TestPipelineStagedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	arcEDB := map[string][]storage.Tuple{"arc": pairs(randGraph(rng, 60, 150))}
	var wedges [][3]int64
	for i := 0; i < 200; i++ {
		wedges = append(wedges, [3]int64{rng.Int63n(50), rng.Int63n(50), 1 + rng.Int63n(20)})
	}
	cases := []struct {
		name, src, out string
		schemas        map[string]*storage.Schema
		edb            map[string][]storage.Tuple
		params         map[string]physical.Param
	}{
		{"tc", tcSrc, "tc", arcSchemas(), arcEDB, nil},
		{"sg", `sg(X, Y) :- arc(P, X), arc(P, Y), X != Y.
			sg(X, Y) :- arc(A, X), sg(A, B), arc(B, Y).`, "sg", arcSchemas(), arcEDB, nil},
		{"sssp", ssspSrc, "sp", warcSchemas(), map[string][]storage.Tuple{"warc": triples(wedges)},
			map[string]physical.Param{"start": {Value: storage.IntVal(wedges[0][0]), Type: storage.TInt}}},
	}
	for _, c := range cases {
		// One oracle run per program; runBoth's own engine result is
		// not needed.
		_, want := runBoth(t, c.src, c.schemas, c.edb, c.params, Options{Workers: 1})
		prog := compileSrc(t, c.src, c.schemas, c.params)
		for _, o := range stagedSerialConfigs() {
			res, err := Run(prog, c.edb, o)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/%s/staged=%v", c.name, cfgName(o), o.stageAlways)
			assertSameRelation(t, name, res.Relations[c.out], want[c.out])
		}
	}
}

// TestBloomGuardsMatchNaive checks the one guard policy against the
// naive oracle across strategies: anti-join probes (always guarded) on
// a negation-bearing program, and a miss-heavy positive join whose
// frames freeze into the guarded state after their warm-up window.
func TestBloomGuardsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	negSrc := `
		sg(X, Y) :- arc(P, X), arc(P, Y), X != Y.
		sg(X, Y) :- arc(A, X), sg(A, B), arc(B, Y).
		node(X) :- arc(_, X).
		nosib(X) :- node(X), !sg(X, X).
	`
	negEDB := map[string][]storage.Tuple{"arc": pairs(randGraph(rng, 30, 60))}
	// Reciprocal edges are rare in a sparse random graph, so the
	// arc(Y, X) probe stream is miss-heavy.
	joinSrc := `mutual(X, Y) :- arc(X, Y), arc(Y, X).`
	joinEDB := map[string][]storage.Tuple{"arc": pairs(randGraph(rng, 400, 2000))}
	for _, c := range []struct {
		src  string
		edb  map[string][]storage.Tuple
		rels []string
	}{{negSrc, negEDB, []string{"sg", "nosib"}}, {joinSrc, joinEDB, []string{"mutual"}}} {
		// One oracle run per program; runBoth's own engine result is
		// not needed.
		_, want := runBoth(t, c.src, arcSchemas(), c.edb, nil, Options{Workers: 1})
		prog := compileSrc(t, c.src, arcSchemas(), nil)
		for _, o := range diffConfigs() {
			res, err := Run(prog, c.edb, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, rel := range c.rels {
				assertSameRelation(t, rel+"/"+cfgName(o), res.Relations[rel], want[rel])
			}
		}
	}
	// One worker sees all 2000 probes in one frame, well past the
	// 512-probe warm-up: the frame must have frozen into the guard.
	res := runSrc(t, joinSrc, arcSchemas(), joinEDB, nil, Options{Workers: 1})
	if pc := res.Stats.Probe; pc.BloomChecks == 0 || pc.BloomSkips == 0 {
		t.Fatalf("miss-heavy join frame never froze into the guard: %+v", pc)
	}
}

// TestProbeCountersSurface checks Stats.Probe is populated and
// internally consistent, and that on a fanout-structured workload the
// audited directory eliminates the expected share of full-key
// compares: every probed bucket holds `fanout` same-key rows, so at
// most one compare per probe survives and the skip rate approaches
// (fanout-1)/fanout.
func TestProbeCountersSurface(t *testing.T) {
	src := `tc(X, Y) :- arc(X, Y).
		tc(X, Z) :- tc(X, Y), arc(Y, Z).`
	prog := compileSrc(t, src, arcSchemas(), nil)
	edb := fanoutEDB(5, 4)
	res, err := Run(prog, edb, Options{Workers: 2, Strategy: coord.DWS})
	if err != nil {
		t.Fatal(err)
	}
	pc := res.Stats.Probe
	if pc.TagProbes == 0 {
		t.Fatalf("no tag-lane probes counted: %+v", pc)
	}
	if pc.TagRejects > pc.TagProbes {
		t.Fatalf("more rejects than probes: %+v", pc)
	}
	if pc.KeyCompares == 0 {
		t.Fatalf("no key compares counted: %+v", pc)
	}
	if rate := pc.KeySkipRate(); rate < 0.5 {
		t.Fatalf("fanout-4 workload skip rate %.2f, want >= 0.5 (audit not engaging): %+v", rate, pc)
	}
	// Per-stratum counters must sum to the run total.
	var sum storage.ProbeCounters
	for _, st := range res.Stats.Strata {
		sum.Add(st.Probe)
	}
	if sum != pc {
		t.Fatalf("stratum probe counters %+v do not sum to run total %+v", sum, pc)
	}

	// An anti-join over the same input is always guarded, so it must
	// register checks.
	neg := compileSrc(t, tcSrc+`sink(X) :- arc(X, _), !arc(X, X).`, arcSchemas(), nil)
	res, err = Run(neg, edb, Options{Workers: 2, Strategy: coord.DWS})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Probe.BloomChecks == 0 {
		t.Fatalf("guarded anti-join recorded no bloom checks: %+v", res.Stats.Probe)
	}
}

// TestBloomGuardSkipsAntiJoinMisses drives a negation whose probes
// mostly miss and checks the guard actually skips directory walks
// (anti-joins are always guarded).
func TestBloomGuardSkipsAntiJoinMisses(t *testing.T) {
	src := `
		node(X) :- arc(X, _).
		node(X) :- arc(_, X).
		sink(X) :- node(X), !arc(X, X).
	`
	prog := compileSrc(t, src, arcSchemas(), nil)
	rng := rand.New(rand.NewSource(47))
	// Almost no self-loops → the anti-join probe stream is miss-heavy.
	edb := map[string][]storage.Tuple{"arc": pairs(randGraph(rng, 400, 900))}
	res, err := Run(prog, edb, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pc := res.Stats.Probe
	if pc.BloomChecks == 0 {
		t.Fatalf("anti-join probes never consulted the guard: %+v", pc)
	}
	if pc.BloomSkips == 0 {
		t.Fatalf("miss-heavy anti-join produced no bloom skips: %+v", pc)
	}
}

// TestPipelineAllocsSteadyState extends the kernel allocation guard to
// the staged pipeline: the marginal allocation cost per derived tuple
// must stay ~0 on the serial walk and on the staged path (the stage
// buffer is fixed worker scratch).
func TestPipelineAllocsSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow")
	}
	src := `tc(X, Y) :- edge(X, Y).
	tc(X, Z) :- tc(X, Y), edge(Y, Z).`
	schemas := map[string]*storage.Schema{"edge": intSchema("edge", "x", "y")}
	prog := compileSrc(t, src, schemas, nil)
	for _, staged := range []bool{false, true} {
		opts := Options{Workers: 1, Strategy: coord.DWS, stageAlways: staged}
		measure := func(n int64) (float64, int) {
			edb := tcAllocsEDB(n)
			res, err := Run(prog, edb, opts)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := Run(prog, edb, opts); err != nil {
					t.Fatal(err)
				}
			})
			return allocs, len(res.Relations["tc"])
		}
		allocsSmall, tuplesSmall := measure(100)
		allocsBig, tuplesBig := measure(260)
		extra := tuplesBig - tuplesSmall
		perTuple := (allocsBig - allocsSmall) / float64(extra)
		t.Logf("staged=%v: %d->%d tuples, %.4f allocs per derived tuple", staged, tuplesSmall, tuplesBig, perTuple)
		if perTuple > 0.5 {
			t.Fatalf("staged=%v: marginal allocations per derived tuple = %.3f, want < 0.5 "+
				"(the probe loop is allocating per probe)", staged, perTuple)
		}
	}
}

// BenchmarkPipelineStaged compares the serial walk with the staged
// pipeline on the single-worker TC hot loop — the headline
// microbenchmark for the pipeline. The input is far below the size
// gate, so the staged arm drops it through Options.stageAlways.
func BenchmarkPipelineStaged(b *testing.B) {
	src := `tc(X, Y) :- edge(X, Y).
	tc(X, Z) :- tc(X, Y), edge(Y, Z).`
	schemas := map[string]*storage.Schema{"edge": intSchema("edge", "x", "y")}
	prog := compileSrc(b, src, schemas, nil)
	edb := map[string][]storage.Tuple{"edge": benchTCEdges()}
	for _, staged := range []bool{false, true} {
		b.Run(fmt.Sprintf("staged=%v", staged), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(prog, edb, Options{
					Workers: 1, Strategy: coord.DWS, stageAlways: staged}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
