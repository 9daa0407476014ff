package dcdatalog

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"
	"time"
)

func newTCDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	db.MustDeclare("arc", Col("x", Int), Col("y", Int))
	db.MustLoad("arc", [][]any{{1, 2}, {2, 3}, {3, 4}})
	return db
}

const tcProgram = `
	tc(X, Y) :- arc(X, Y).
	tc(X, Y) :- tc(X, Z), arc(Z, Y).
`

func TestQueryTC(t *testing.T) {
	db := newTCDB(t)
	res, err := db.Query(tcProgram, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len("tc") != 6 {
		t.Fatalf("tc size = %d, want 6", res.Len("tc"))
	}
	rows := res.Rows("tc")
	seen := map[[2]int64]bool{}
	for _, r := range rows {
		seen[[2]int64{r[0].(int64), r[1].(int64)}] = true
	}
	for _, want := range [][2]int64{{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}} {
		if !seen[want] {
			t.Fatalf("missing %v in %v", want, rows)
		}
	}
}

func TestQueryAllStrategiesViaOptions(t *testing.T) {
	for _, s := range []Strategy{Global, SSP, DWS} {
		db := newTCDB(t)
		res, err := db.Query(tcProgram, WithStrategy(s), WithWorkers(3), WithBatchSize(4))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Len("tc") != 6 {
			t.Fatalf("%v: tc size = %d", s, res.Len("tc"))
		}
		if res.Stats().Strategy != s {
			t.Fatalf("stats strategy = %v", res.Stats().Strategy)
		}
	}
}

func TestQueryWithParams(t *testing.T) {
	db := NewDatabase()
	db.MustDeclare("warc", Col("x", Int), Col("y", Int), Col("w", Int))
	db.MustLoad("warc", [][]any{{0, 1, 5}, {1, 2, 3}, {0, 2, 10}})
	res, err := db.Query(`
		sp(To, min<C>) :- To = $start, C = 0.
		sp(To2, min<C>) :- sp(To1, C1), warc(To1, To2, C2), C = C1 + C2.
	`, WithParam("start", 0))
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]int64{}
	for _, r := range res.Rows("sp") {
		got[r[0].(int64)] = r[1].(int64)
	}
	if got[0] != 0 || got[1] != 5 || got[2] != 8 {
		t.Fatalf("sp = %v", got)
	}
}

func TestSymbolColumnsRoundTrip(t *testing.T) {
	db := NewDatabase()
	db.MustDeclare("parent", Col("p", Sym), Col("c", Sym))
	db.MustLoad("parent", [][]any{{"alice", "bob"}, {"bob", "carol"}})
	res, err := db.Query(`
		anc(X, Y) :- parent(X, Y).
		anc(X, Y) :- anc(X, Z), parent(Z, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range res.Rows("anc") {
		got = append(got, r[0].(string)+">"+r[1].(string))
	}
	sort.Strings(got)
	want := []string{"alice>bob", "alice>carol", "bob>carol"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("anc = %v", got)
		}
	}
}

func TestLoadTSV(t *testing.T) {
	db := NewDatabase()
	db.MustDeclare("warc", Col("x", Int), Col("y", Int), Col("w", Float))
	err := db.LoadTSV("warc", strings.NewReader(`
		# comment
		1	2	0.5
		2	3	1.25
	`))
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Relation("warc")) != 2 {
		t.Fatalf("warc = %v", db.Relation("warc"))
	}
	if got := db.Relation("warc")[1][2].Float(); got != 1.25 {
		t.Fatalf("weight = %g", got)
	}
	if err := db.LoadTSV("warc", strings.NewReader("1 2")); err == nil {
		t.Fatal("short row should fail")
	}
	if err := db.LoadTSV("warc", strings.NewReader("a b c")); err == nil {
		t.Fatal("non-numeric int should fail")
	}
	if err := db.LoadTSV("nope", strings.NewReader("")); err == nil {
		t.Fatal("undeclared relation should fail")
	}
}

func TestDeclareAndLoadErrors(t *testing.T) {
	db := NewDatabase()
	if err := db.Declare("r"); err == nil {
		t.Fatal("zero columns should fail")
	}
	db.MustDeclare("r", Col("x", Int))
	if err := db.Declare("r", Col("x", Int)); err == nil {
		t.Fatal("duplicate declaration should fail")
	}
	if err := db.Load("missing", [][]any{{1}}); err == nil {
		t.Fatal("loading undeclared relation should fail")
	}
	if err := db.Load("r", [][]any{{1, 2}}); err == nil {
		t.Fatal("arity mismatch should fail")
	}
	if err := db.Load("r", [][]any{{"str"}}); err == nil {
		t.Fatal("string into int column should fail")
	}
	if err := db.Load("r", [][]any{{3.5}}); err == nil {
		t.Fatal("float into int column should fail")
	}
}

func TestQueryErrors(t *testing.T) {
	db := newTCDB(t)
	if _, err := db.Query(`tc(X, Y) :- `); err == nil {
		t.Fatal("syntax error should surface")
	}
	if _, err := db.Query(`p(X) :- unknown(X).`); err == nil {
		t.Fatal("unknown relation should surface")
	}
	if _, err := db.Query(`p(X) :- arc(X, Y), $p = 1.`); err == nil {
		t.Fatal("unbound parameter should surface")
	}
	if _, err := db.Query(tcProgram, WithParam("x", struct{}{})); err == nil {
		t.Fatal("bad parameter type should surface")
	}
}

func TestExplain(t *testing.T) {
	db := newTCDB(t)
	out, err := db.Explain(tcProgram)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stratum 0", "δtc", "AND/OR tree", "EDB arc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestAblationOptions(t *testing.T) {
	db := NewDatabase()
	db.MustDeclare("arc", Col("x", Int), Col("y", Int))
	db.MustLoad("arc", [][]any{{1, 2}, {2, 1}, {2, 3}, {3, 2}})
	src := `
		cc2(Y, min<Y>) :- arc(Y, _).
		cc2(Y, min<Z>) :- cc2(X, Z), arc(X, Y).
	`
	base, err := db.Query(src, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	abl, err := db.Query(src, WithWorkers(2), WithoutExistCache(), WithoutIndexAgg(), WithoutPartialAgg())
	if err != nil {
		t.Fatal(err)
	}
	if base.Len("cc2") != abl.Len("cc2") {
		t.Fatalf("ablation changed cardinality: %d vs %d", base.Len("cc2"), abl.Len("cc2"))
	}
}

func TestLoadTuplesBulk(t *testing.T) {
	db := NewDatabase()
	db.MustDeclare("arc", Col("x", Int), Col("y", Int))
	tuples := []Tuple{{1, 2}, {2, 3}}
	if err := db.LoadTuples("arc", tuples); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTuples("arc", []Tuple{{1}}); err == nil {
		t.Fatal("arity mismatch should fail")
	}
	if err := db.LoadTuples("zzz", tuples); err == nil {
		t.Fatal("undeclared should fail")
	}
}

func TestWithMaxIterations(t *testing.T) {
	db := NewDatabase()
	res, err := db.Query(`
		num(X) :- X = 0.
		num(Y) :- num(X), Y = X + 1, Y < 100000.
	`, WithMaxIterations(10), WithWorkers(1))
	// Truncation is no longer silent: the capped run reports
	// ErrBudgetExceeded alongside the partial result.
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if res == nil {
		t.Fatal("capped run must still return the partial result")
	}
	if res.Len("num") == 0 || res.Len("num") >= 100000 {
		t.Fatalf("num = %d", res.Len("num"))
	}
}

func TestQueryContextDeadline(t *testing.T) {
	db := NewDatabase()
	db.MustDeclare("arc", Col("x", Int), Col("y", Int))
	for i := 0; i < 8; i++ {
		db.MustLoad("arc", [][]any{{i, (i + 1) % 8}})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := db.QueryContext(ctx, `
		p(X, Z) :- arc(X, Y), Z = 0.
		p(Y, M) :- p(X, N), arc(X, Y), M = N + 1.
	`, WithWorkers(2))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if res != nil {
		t.Fatal("canceled query must not return a result")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("deadline took %s to surface", elapsed)
	}
}

func TestPreparedReuse(t *testing.T) {
	db := newTCDB(t)
	p, err := db.Prepare(`
		out(Y) :- arc($src, Y).
	`, WithParam("src", 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := p.Exec(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Len("out") == 0 {
			t.Fatalf("run %d: no rows", i)
		}
	}
	// Exec-time options may tune execution but not recompile: changing
	// a parameter after Prepare is an error, not a silent rebind.
	if _, err := p.Exec(context.Background(), WithParam("src", 2)); err == nil {
		t.Fatal("changing a param at Exec must fail")
	}
	if _, err := p.Exec(context.Background(), WithWorkers(2)); err != nil {
		t.Fatalf("exec-time worker override: %v", err)
	}
}
