package engine

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/storage"
)

// TestPreparedBaseMatchesColdRun checks that a run attaching a shared
// PreparedBase produces exactly the relations of a cold run, for every
// strategy × worker configuration.
func TestPreparedBaseMatchesColdRun(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	edges := pairs(randGraph(rng, 60, 200))
	schemas := arcSchemas()
	edb := map[string][]storage.Tuple{"arc": edges}
	// The sink rule is a guarded anti-join: warm runs probe the
	// memoized index and its Bloom filter instead of freshly built ones.
	src := `
		tc(X, Y) :- arc(X, Y).
		tc(X, Y) :- tc(X, Z), arc(Z, Y).
		sink(X) :- arc(X, _), !arc(X, X).
	`
	prog := compileSrc(t, src, schemas, nil)
	base := NewPreparedBase(schemas, edb)

	for _, opts := range allConfigs() {
		opts := opts
		t.Run(cfgName(opts), func(t *testing.T) {
			cold, err := Run(prog, edb, opts)
			if err != nil {
				t.Fatal(err)
			}
			warm := opts
			warm.Base = base
			got, err := Run(prog, edb, warm)
			if err != nil {
				t.Fatal(err)
			}
			for _, rel := range []string{"tc", "sink"} {
				if !reflect.DeepEqual(sortedRows(got.Relations[rel]), sortedRows(cold.Relations[rel])) {
					t.Fatalf("prepared-base run diverged from cold run on %s: %d vs %d tuples",
						rel, len(got.Relations[rel]), len(cold.Relations[rel]))
				}
			}
			if got.Stats.Probe.BloomChecks == 0 {
				t.Fatalf("warm anti-join consulted no Bloom filter: %+v", got.Stats.Probe)
			}
		})
	}

	// The base was consulted: one miss per lookup signature at most,
	// hits for every rerun.
	st := base.Stats()
	if st.Misses == 0 {
		t.Fatalf("base never built an index (misses=0); Options.Base was ignored")
	}
	if st.Hits == 0 {
		t.Fatalf("base never served a cached index (hits=0) across %d runs", len(allConfigs()))
	}
	if int64(st.Indexes) != st.Misses {
		t.Fatalf("misses (%d) should equal distinct indexes built (%d)", st.Misses, st.Indexes)
	}
}

// TestPreparedBaseConcurrentRuns exercises the singleflight build path
// under -race: 8 concurrent RunContext calls share one fresh
// PreparedBase, so they race to build the same indexes and must all
// agree with the cold result.
func TestPreparedBaseConcurrentRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	edges := pairs(randGraph(rng, 80, 300))
	schemas := arcSchemas()
	edb := map[string][]storage.Tuple{"arc": edges}
	src := `
		tc(X, Y) :- arc(X, Y).
		tc(X, Y) :- tc(X, Z), arc(Z, Y).
	`
	prog := compileSrc(t, src, schemas, nil)
	cold, err := Run(prog, edb, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := sortedRows(cold.Relations["tc"])

	base := NewPreparedBase(schemas, edb)
	const runs = 8
	results := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := Options{Workers: 1 + i%3, Base: base}
			results[i], errs[i] = RunContext(context.Background(), prog, edb, opts)
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if got := sortedRows(results[i].Relations["tc"]); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d diverged from cold run: %d vs %d tuples", i, len(got), len(want))
		}
	}
	st := base.Stats()
	if st.Misses != int64(st.Indexes) {
		t.Fatalf("singleflight violated: %d builds for %d distinct indexes", st.Misses, st.Indexes)
	}
}

// TestPreparedBaseSetupFaster asserts the headline perf property at the
// engine level: a warm run's SetupDuration is a small fraction of a
// cold run's on a dataset large enough for index builds to register.
func TestPreparedBaseSetupFaster(t *testing.T) {
	// 60k edges in disjoint 2-chains: the arc index build is large
	// enough to register, while the transitive closure adds nothing, so
	// the measurement isolates setup.
	var chains [][2]int64
	for i := int64(0); i < 60000; i++ {
		chains = append(chains, [2]int64{2 * i, 2*i + 1})
	}
	edges := pairs(chains)
	schemas := arcSchemas()
	edb := map[string][]storage.Tuple{"arc": edges}
	src := `
		tc(X, Y) :- arc(X, Y).
		tc(X, Y) :- tc(X, Z), arc(Z, Y).
	`
	prog := compileSrc(t, src, schemas, nil)
	base := NewPreparedBase(schemas, edb)
	opts := Options{Workers: 2, Base: base}

	// First run builds into the base (cold); later runs attach (warm).
	cold, err := Run(prog, edb, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm := cold.Stats.SetupDuration
	for i := 0; i < 3; i++ {
		res, err := Run(prog, edb, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d := res.Stats.SetupDuration; d < warm {
			warm = d
		}
	}
	if warm >= cold.Stats.SetupDuration {
		t.Fatalf("warm setup (%v) not below cold setup (%v)", warm, cold.Stats.SetupDuration)
	}
}

func TestColSig(t *testing.T) {
	cases := []struct {
		cols []int
		want string
	}{
		{nil, ""},
		{[]int{0}, "0"},
		{[]int{0, 2}, "0,2"},
		{[]int{10, 3}, "10,3"},
	}
	for _, c := range cases {
		if got := colSig(c.cols); got != c.want {
			t.Errorf("colSig(%v) = %q, want %q", c.cols, got, c.want)
		}
	}
}

// TestPreparedBaseRebase pins the single-relation invalidation
// contract: rebasing after mutating one relation keeps every other
// relation's settled index entries (hits, no rebuild) and rebuilds only
// the changed one (a miss).
func TestPreparedBaseRebase(t *testing.T) {
	schemas := map[string]*storage.Schema{
		"arc":  intSchema("arc", "x", "y"),
		"node": intSchema("node", "x", "y"),
	}
	edb := map[string][]storage.Tuple{
		"arc":  pairs([][2]int64{{1, 2}, {2, 3}}),
		"node": pairs([][2]int64{{1, 1}, {2, 2}}),
	}
	base := NewPreparedBase(schemas, edb)
	// Build one index per relation.
	base.Indexes("arc", [][]int{{0}}, 1)
	base.Indexes("node", [][]int{{0}}, 1)
	st := base.Stats()
	if st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("cold builds: %+v", st)
	}
	arcIdx := base.Indexes("arc", [][]int{{0}}, 1)[0]
	nodeIdx := base.Indexes("node", [][]int{{0}}, 1)[0]

	edb2 := map[string][]storage.Tuple{
		"arc":  pairs([][2]int64{{1, 2}, {2, 3}, {3, 4}}),
		"node": edb["node"],
	}
	nb := base.Rebase(schemas, edb2, map[string]bool{"arc": true})
	if got := nb.Indexes("node", [][]int{{0}}, 1)[0]; got != nodeIdx {
		t.Fatalf("unchanged relation's index was rebuilt")
	}
	if got := nb.Indexes("arc", [][]int{{0}}, 1)[0]; got == arcIdx {
		t.Fatalf("changed relation's index survived the rebase")
	}
	if !nb.Indexes("arc", [][]int{{0}}, 1)[0].Contains([]storage.Value{storage.IntVal(3)}) {
		t.Fatalf("rebased arc index missing the new tuple")
	}
	// Counters are cumulative across the rebase: 2 cold + 2 post-rebase
	// requests of which node hit and arc missed (4+2 total requests).
	st = nb.Stats()
	if st.Hits < 2 || st.Misses != 3 {
		t.Fatalf("post-rebase counters: %+v", st)
	}
	// The old base is untouched.
	if got := base.Indexes("arc", [][]int{{0}}, 1)[0]; got != arcIdx {
		t.Fatalf("rebase mutated the receiver")
	}
}

// TestPreparedBaseDerive pins alias index sharing: a derived base maps
// renamed relations onto the receiver's snapshots and serves their
// settled indexes by pointer.
func TestPreparedBaseDerive(t *testing.T) {
	schemas := map[string]*storage.Schema{"arc": intSchema("arc", "x", "y")}
	edb := map[string][]storage.Tuple{"arc": pairs([][2]int64{{1, 2}, {2, 3}})}
	base := NewPreparedBase(schemas, edb)
	old := base.Indexes("arc", [][]int{{0}}, 1)[0]

	mid := pairs([][2]int64{{1, 2}})
	db := base.Derive(map[string]DerivedRel{
		"arc__ivmold": {SameAs: "arc"},
		"arc__ivmnew": {Tuples: mid},
	})
	if got := db.Indexes("arc__ivmold", [][]int{{0}}, 1)[0]; got != old {
		t.Fatalf("alias did not share the settled index")
	}
	if n := len(db.Tuples("arc__ivmnew")); n != 1 {
		t.Fatalf("fresh relation has %d tuples, want 1", n)
	}
	if db.Has("arc") {
		t.Fatalf("derive leaked an unlisted relation")
	}
}
