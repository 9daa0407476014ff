package dcdatalog

import "testing"

// TestProbeStatsExposed checks the probe counters ride through the
// public Stats surface and that an anti-join, which is always guarded,
// registers Bloom checks.
func TestProbeStatsExposed(t *testing.T) {
	db := NewDatabase()
	db.MustDeclare("arc", Col("x", Int), Col("y", Int))
	rows := make([][]any, 0, 64)
	for i := 0; i < 63; i++ {
		rows = append(rows, []any{i, i + 1})
	}
	db.MustLoad("arc", rows)
	src := `
		tc(X, Y) :- arc(X, Y).
		tc(X, Z) :- tc(X, Y), arc(Y, Z).
		sink(X) :- arc(X, _), !arc(X, X).
	`
	res, err := db.Query(src, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	pc := res.Stats().Probe
	if pc.TagProbes == 0 || pc.KeyCompares == 0 {
		t.Fatalf("probe counters not populated: %+v", pc)
	}
	if pc.BloomChecks == 0 {
		t.Fatalf("guarded anti-join registered no checks: %+v", pc)
	}
}
