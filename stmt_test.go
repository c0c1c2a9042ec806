package fastframe

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func stmtTestEngine(t *testing.T) *Engine {
	t.Helper()
	tab, err := GenerateFlights(30_000, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	if err := eng.Register("flights", tab); err != nil {
		t.Fatal(err)
	}
	return eng
}

// sameAnswer compares two Results field-for-field except the
// time-dependent Duration.
func sameAnswer(a, b *Result) bool {
	ac, bc := *a, *b
	ac.Duration, bc.Duration = 0, 0
	return reflect.DeepEqual(ac, bc)
}

// TestStmtEquivalentToLiteralQuery is the acceptance criterion: one
// Stmt compiled once and run with different bound args must produce
// results identical to Engine.Query on the equivalent literal SQL.
func TestStmtEquivalentToLiteralQuery(t *testing.T) {
	eng := stmtTestEngine(t)
	ctx := context.Background()

	stmt, err := eng.Prepare(
		"SELECT AVG(DepDelay) FROM flights WHERE Origin = ? GROUP BY Airline WITHIN ABS ?",
		WithSeed(9), WithRoundRows(4000))
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 2 {
		t.Fatalf("NumParams = %d", stmt.NumParams())
	}

	for _, c := range []struct {
		origin  string
		eps     float64
		literal string
	}{
		{"ORD", 3.0, "SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD' GROUP BY Airline WITHIN ABS 3"},
		{"LAX", 5.0, "SELECT AVG(DepDelay) FROM flights WHERE Origin = 'LAX' GROUP BY Airline WITHIN ABS 5"},
		{"ATL", 2.0, "SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ATL' GROUP BY Airline WITHIN ABS 2"},
	} {
		got, err := stmt.Query(ctx, c.origin, c.eps)
		if err != nil {
			t.Fatalf("stmt.Query(%s): %v", c.origin, err)
		}
		want, err := eng.Query(ctx, c.literal, WithSeed(9), WithRoundRows(4000))
		if err != nil {
			t.Fatalf("literal query: %v", err)
		}
		if !sameAnswer(got, want) {
			t.Errorf("%s: prepared result differs from literal result", c.origin)
		}
	}

	// QueryExact through the statement matches the literal exact path.
	ex, err := stmt.QueryExact(ctx, "ORD", 3.0)
	if err != nil {
		t.Fatal(err)
	}
	exWant, err := eng.QueryExact(ctx, "SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD' GROUP BY Airline WITHIN ABS 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Groups) != len(exWant.Groups) {
		t.Fatalf("exact group counts differ: %d vs %d", len(ex.Groups), len(exWant.Groups))
	}
	for i := range ex.Groups {
		g, w := ex.Groups[i], exWant.Groups[i]
		if g.Key != w.Key || g.Count != w.Count || len(g.Stats) != len(w.Stats) {
			t.Errorf("exact group %d: %+v vs %+v", i, g, w)
			continue
		}
		for k := range g.Stats {
			if g.Stats[k] != w.Stats[k] {
				t.Errorf("exact group %d stat %d: %v vs %v", i, k, g.Stats[k], w.Stats[k])
			}
		}
	}
}

// TestStmtBindErrors: binding failures surface before any scan and
// identify the slot.
func TestStmtBindErrors(t *testing.T) {
	eng := stmtTestEngine(t)
	stmt, err := eng.Prepare("SELECT AVG(DepDelay) FROM flights WHERE Origin = ? WITHIN ?%")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(context.Background(), 42, 5.0); err == nil ||
		!strings.Contains(err.Error(), "parameter 1") {
		t.Errorf("type error = %v", err)
	}
	if _, err := stmt.Query(context.Background(), "ORD"); err == nil {
		t.Error("underbinding accepted")
	}
	if _, err := stmt.Bind("ORD", 5.0); err != nil {
		t.Errorf("valid Bind failed: %v", err)
	}

	// Engine.Query refuses parameterized text with a pointer to Prepare.
	if _, err := eng.Query(context.Background(),
		"SELECT AVG(DepDelay) FROM flights WHERE Origin = ?"); err == nil ||
		!strings.Contains(err.Error(), "Prepare") {
		t.Errorf("parameterized Engine.Query error = %v", err)
	}
}

// TestStmtConcurrentReuse runs one Stmt from many goroutines with
// different bindings; under -race this doubles as the data-race check.
func TestStmtConcurrentReuse(t *testing.T) {
	eng := stmtTestEngine(t)
	stmt, err := eng.Prepare(
		"SELECT COUNT(*) FROM flights WHERE Origin = ? AND DepTime > ? EXACT",
		WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	origins := []string{"ORD", "ATL", "LAX", "PHX", "DEN"}

	// Reference answers, computed serially.
	want := make([]*Result, len(origins))
	for i, o := range origins {
		if want[i], err = stmt.Query(context.Background(), o, 1000.0); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4*len(origins))
	for rep := 0; rep < 4; rep++ {
		for i, o := range origins {
			wg.Add(1)
			go func(i int, o string) {
				defer wg.Done()
				got, err := stmt.Query(context.Background(), o, 1000.0)
				if err != nil {
					errs <- err
					return
				}
				if !sameAnswer(got, want[i]) {
					t.Errorf("concurrent run for %s diverged", o)
				}
			}(i, o)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPlanCache: repeated SQL text hits the cache, the LRU evicts, and
// WithPlanCacheSize(0) disables caching.
func TestPlanCache(t *testing.T) {
	eng := stmtTestEngine(t)
	ctx := context.Background()
	const q = "SELECT COUNT(*) FROM flights EXACT"

	for i := 0; i < 3; i++ {
		if _, err := eng.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, size := eng.PlanCacheStats()
	if hits != 2 || misses != 1 || size != 1 {
		t.Errorf("stats after 3 identical queries = (%d hits, %d misses, %d size), want (2, 1, 1)", hits, misses, size)
	}

	// Prepare shares the same cache as Query.
	if _, err := eng.Prepare(q); err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := eng.PlanCacheStats(); hits != 3 {
		t.Errorf("Prepare did not hit the plan cache: hits = %d", hits)
	}

	// A tiny cache evicts least-recently-used text.
	small := NewEngine(WithPlanCacheSize(2))
	if err := small.Register("flights", mustTable(t)); err != nil {
		t.Fatal(err)
	}
	texts := []string{
		"SELECT COUNT(*) FROM flights EXACT",
		"SELECT AVG(DepDelay) FROM flights EXACT",
		"SELECT SUM(DepDelay) FROM flights EXACT",
	}
	for _, q := range texts {
		if _, err := small.Prepare(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, size := small.PlanCacheStats(); size != 2 {
		t.Errorf("LRU size = %d, want 2", size)
	}
	// texts[0] was evicted; texts[2] is resident.
	if _, err := small.Prepare(texts[2]); err != nil {
		t.Fatal(err)
	}
	hits, _, _ = small.PlanCacheStats()
	if hits != 1 {
		t.Errorf("hits after re-preparing resident text = %d, want 1", hits)
	}

	// Disabled cache: everything misses, nothing is stored.
	off := NewEngine(WithPlanCacheSize(0))
	if err := off.Register("flights", mustTable(t)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := off.Prepare(q); err != nil {
			t.Fatal(err)
		}
	}
	if hits, _, size := off.PlanCacheStats(); hits != 0 || size != 0 {
		t.Errorf("disabled cache stats = (%d hits, %d size)", hits, size)
	}
}

var (
	sharedTabOnce sync.Once
	sharedTab     *Table
	sharedTabErr  error
)

func mustTable(t *testing.T) *Table {
	t.Helper()
	sharedTabOnce.Do(func() { sharedTab, sharedTabErr = GenerateFlights(5_000, 3) })
	if sharedTabErr != nil {
		t.Fatal(sharedTabErr)
	}
	return sharedTab
}

// TestSessionAccounting pins the unified rule: every produced result
// counts toward QueriesRun; only approximate results charge δ.
func TestSessionAccounting(t *testing.T) {
	tab := mustTable(t)
	eng := NewEngine(WithSessionBudget(1e-12, 4))
	if err := eng.Register("flights", tab); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	perQuery := 2.5e-13

	// 1. Approximate query: counts and charges.
	if _, err := eng.Query(ctx, "SELECT AVG(DepDelay) FROM flights WITHIN 50%", WithRoundRows(1000)); err != nil {
		t.Fatal(err)
	}
	if n := eng.QueriesRun(); n != 1 {
		t.Fatalf("after approx query: QueriesRun = %d", n)
	}
	if spent := eng.SessionError(); math.Abs(spent-perQuery) > 1e-25 {
		t.Fatalf("after approx query: SessionError = %v", spent)
	}

	// 2. Exact query: counts, does not charge (deterministic, δ-free).
	if _, err := eng.QueryExact(ctx, "SELECT AVG(DepDelay) FROM flights"); err != nil {
		t.Fatal(err)
	}
	if n := eng.QueriesRun(); n != 2 {
		t.Errorf("after exact query: QueriesRun = %d, want 2", n)
	}
	if spent := eng.SessionError(); math.Abs(spent-perQuery) > 1e-25 {
		t.Errorf("exact query charged the budget: SessionError = %v", spent)
	}

	// 3. Failed run: neither counts nor charges.
	if _, err := eng.Query(ctx, "SELECT AVG(NoSuchColumn) FROM flights"); err == nil {
		t.Fatal("bad column accepted")
	}
	if _, err := eng.QueryExact(ctx, "SELECT AVG(NoSuchColumn) FROM flights"); err == nil {
		t.Fatal("bad exact column accepted")
	}
	if n := eng.QueriesRun(); n != 2 {
		t.Errorf("failed runs counted: QueriesRun = %d, want 2", n)
	}
	if spent := eng.SessionError(); math.Abs(spent-perQuery) > 1e-25 {
		t.Errorf("failed runs charged: SessionError = %v", spent)
	}

	// 4. Aborted approximate query: counts and charges (its partial
	// intervals were reported).
	stop := func(Progress) bool { return false }
	if _, err := eng.Query(ctx, "SELECT AVG(DepDelay) FROM flights WITHIN 1%",
		WithRoundRows(500), WithProgress(stop)); err != nil {
		t.Fatal(err)
	}
	if n := eng.QueriesRun(); n != 3 {
		t.Errorf("aborted query not counted: QueriesRun = %d, want 3", n)
	}
	if spent := eng.SessionError(); math.Abs(spent-2*perQuery) > 1e-25 {
		t.Errorf("aborted query not charged: SessionError = %v", spent)
	}

	// 5. A drained stream counts and charges once, on completion.
	rows, err := eng.Stream(ctx, "SELECT AVG(DepDelay) FROM flights WITHIN 50%", WithRoundRows(1000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Final(); err != nil {
		t.Fatal(err)
	}
	if n := eng.QueriesRun(); n != 4 {
		t.Errorf("stream not counted: QueriesRun = %d, want 4", n)
	}
	if spent := eng.SessionError(); math.Abs(spent-3*perQuery) > 1e-25 {
		t.Errorf("stream not charged once: SessionError = %v", spent)
	}
}

// TestEngineExplainDetail: the upgraded Explain renders the full plan.
func TestEngineExplainDetail(t *testing.T) {
	eng := NewEngine()
	plan, err := eng.Explain(
		"SELECT SUM(DepDelay) FROM flights WHERE Airline IN ('AA', 'HP') AND DepTime BETWEEN 900 AND 1800 GROUP BY Origin ORDER BY SUM(DepDelay) DESC LIMIT 3 PARALLEL 2")
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{
		"SELECT SUM(DepDelay)",
		"FROM flights",
		`Airline IN ("AA", "HP")`,
		"DepTime BETWEEN 900 AND 1800",
		"GROUP BY Origin",
		"STOP top-k",
		"top-3",
	} {
		if !strings.Contains(plan, sub) {
			t.Errorf("Explain missing %q in:\n%s", sub, plan)
		}
	}
	if strings.Contains(plan, "PARALLEL") {
		t.Errorf("Explain renders the retired PARALLEL hint:\n%s", plan)
	}

	// Prepared-statement slots render in the plan.
	stmt, err := eng.Prepare("SELECT AVG(DepDelay) FROM flights WHERE Origin = ? WITHIN ABS ?")
	if err != nil {
		t.Fatal(err)
	}
	plan = stmt.Explain()
	for _, sub := range []string{"PARAMS 2 slot(s)", "$1 string", "$2 number", "WITHIN ABS ?"} {
		if !strings.Contains(plan, sub) {
			t.Errorf("stmt Explain missing %q in:\n%s", sub, plan)
		}
	}

	// A bound statement renders the same full plan with the slots
	// replaced by their bound values.
	bound, err := stmt.Bind("ORD", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	plan = bound.Explain()
	for _, sub := range []string{`Origin = "ORD"`, "abs-width", "0.5", "FROM flights"} {
		if !strings.Contains(plan, sub) {
			t.Errorf("bound Explain missing %q in:\n%s", sub, plan)
		}
	}
	if strings.Contains(plan, "$1") || strings.Contains(plan, "PARAMS") {
		t.Errorf("bound Explain still shows parameter slots:\n%s", plan)
	}
}
