package fastframe

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// airportsDim assigns region and state attributes to every Origin of
// the fact table, deterministically from dictionary order.
func airportsDim(t testing.TB, tab *Table) *Dimension {
	t.Helper()
	origins, err := tab.CategoricalValues("Origin")
	if err != nil {
		t.Fatal(err)
	}
	regions := []string{"west", "east", "south"}
	states := []string{"CA", "NY", "TX", "WA"}
	d := NewDimension("airports")
	for i, code := range origins {
		d.Add(code, map[string]string{
			"region": regions[i%len(regions)],
			"state":  states[i%len(states)],
		})
	}
	return d
}

// statesDim is the snowflake second level: state → zone.
func statesDim() *Dimension {
	d := NewDimension("states")
	d.Add("CA", map[string]string{"zone": "pacific"})
	d.Add("WA", map[string]string{"zone": "pacific"})
	d.Add("NY", map[string]string{"zone": "atlantic"})
	d.Add("TX", map[string]string{"zone": "gulf"})
	return d
}

// starEngine wires the fact table plus the airports → states snowflake
// into an engine.
func starEngine(t testing.TB, tab *Table) *Engine {
	t.Helper()
	eng := NewEngine(WithQueryDelta(1e-9))
	if err := eng.Register("flights", tab); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterDimension("airports", airportsDim(t, tab)); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterDimension("states", statesDim()); err != nil {
		t.Fatal(err)
	}
	if err := eng.AttachDimension("flights", "Origin", "airports"); err != nil {
		t.Fatal(err)
	}
	if err := eng.AttachDimension("airports", "state", "states"); err != nil {
		t.Fatal(err)
	}
	return eng
}

// sameResult compares two approximate results byte-for-byte modulo
// wall-clock duration.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	g, w := *got, *want
	g.Duration, w.Duration = 0, 0
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s: SQL JOIN result differs from hand-built star path:\n got %+v\nwant %+v", label, g, w)
	}
}

// TestSQLJoinMatchesHandBuiltStar is the acceptance property: for
// fixed seeds, a SQL JOIN with a dimension predicate is byte-identical
// — estimates, intervals, samples, rounds, blocks fetched — to the
// hand-compiled StarSchema/AndCatIn path, at WithParallelism 1 and 4,
// for converged, aborted, and exact runs.
func TestSQLJoinMatchesHandBuiltStar(t *testing.T) {
	tab := smallFlights(t)
	eng := starEngine(t, tab)
	airports := airportsDim(t, tab)
	ss := NewStarSchema(tab)
	if err := ss.Attach("Origin", airports); err != nil {
		t.Fatal(err)
	}

	stmt, err := eng.Prepare("SELECT AVG(DepDelay) FROM flights " +
		"JOIN airports ON flights.Origin = airports.key " +
		"WHERE airports.region = ? AND DepDelay > -60 " +
		"GROUP BY DayOfWeek WITHIN 40%")
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for _, par := range []int{1, 4} {
		for _, seed := range []uint64{1, 2, 3} {
			opts := []Option{WithDelta(1e-9), WithRoundRows(2000), WithSeed(seed), WithParallelism(par)}

			hand := Avg("DepDelay").WhereGreater("DepDelay", -60).
				GroupBy("DayOfWeek").StopAtRelError(0.4)
			hand, err := ss.WhereDimension(hand, "Origin", "region", "west")
			if err != nil {
				t.Fatal(err)
			}

			bound, err := stmt.Bind("west")
			if err != nil {
				t.Fatal(err)
			}
			got, err := bound.Query(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ss.Query(ctx, hand, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Groups) == 0 {
				t.Fatal("hand-built star query returned no groups")
			}
			sameResult(t, labelPS(par, seed), got, want)

			// Aborted mid-scan: stop after the first round from the
			// progress callback; both paths abort at the same barrier.
			abort := WithProgress(func(p Progress) bool { return p.Round < 1 })
			gotA, err := bound.Query(ctx, append(opts, abort)...)
			if err != nil {
				t.Fatal(err)
			}
			wantA, err := ss.Query(ctx, hand, append(opts, abort)...)
			if err != nil {
				t.Fatal(err)
			}
			if !wantA.Aborted {
				t.Fatal("progress abort did not set Aborted")
			}
			sameResult(t, labelPS(par, seed)+" aborted", gotA, wantA)

			// Exact evaluation of the same join view.
			gotE, err := bound.QueryExact(ctx, WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			wantE, err := tab.QueryExact(ctx, hand, WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			ge, we := *gotE, *wantE
			ge.Duration, we.Duration = 0, 0
			if !reflect.DeepEqual(ge, we) {
				t.Errorf("%s exact: %+v vs %+v", labelPS(par, seed), ge, we)
			}
		}
	}
}

func labelPS(par int, seed uint64) string {
	return "P=" + string(rune('0'+par)) + " seed=" + string(rune('0'+seed))
}

// TestSQLJoinInAndNotMatchHandBuilt covers the richer dimension
// predicate forms: IN lists and != against the WhereDimensionIn /
// WhereDimensionNot star helpers.
func TestSQLJoinInAndNotMatchHandBuilt(t *testing.T) {
	tab := smallFlights(t)
	eng := starEngine(t, tab)
	airports := airportsDim(t, tab)
	ss := NewStarSchema(tab)
	if err := ss.Attach("Origin", airports); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := []Option{WithDelta(1e-9), WithRoundRows(2000), WithSeed(4)}

	// IN with a mix of literal and bound members.
	stmt, err := eng.Prepare("SELECT COUNT(*) FROM flights " +
		"JOIN airports ON flights.Origin = airports.key " +
		"WHERE airports.region IN ('east', ?) WITHIN 30%")
	if err != nil {
		t.Fatal(err)
	}
	bound, err := stmt.Bind("south")
	if err != nil {
		t.Fatal(err)
	}
	got, err := bound.Query(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	hand, err := ss.WhereDimensionIn(CountRows().StopAtRelError(0.3), "Origin", "region", "east", "south")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ss.Query(ctx, hand, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "IN", got, want)

	// != compiles to the attribute-bearing complement.
	res, err := eng.Query(ctx, "SELECT COUNT(*) FROM flights "+
		"JOIN airports ON flights.Origin = airports.key "+
		"WHERE airports.region != 'west' WITHIN 30%", opts...)
	if err != nil {
		t.Fatal(err)
	}
	handNe, err := ss.WhereDimensionNot(CountRows().StopAtRelError(0.3), "Origin", "region", "west")
	if err != nil {
		t.Fatal(err)
	}
	wantNe, err := ss.Query(ctx, handNe, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "!=", res, wantNe)
}

// TestSQLSnowflakeChainMatchesHandBuilt drives a predicate over a
// second-level dimension (zone on states) through the SQL chain
// JOIN airports … JOIN states … and checks it against the hand-chained
// compilation: states keys → airports keys → fact-side IN.
func TestSQLSnowflakeChainMatchesHandBuilt(t *testing.T) {
	tab := smallFlights(t)
	eng := starEngine(t, tab)
	airports := airportsDim(t, tab)
	states := statesDim()
	ss := NewStarSchema(tab)
	if err := ss.Attach("Origin", airports); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for _, par := range []int{1, 4} {
		opts := []Option{WithDelta(1e-9), WithRoundRows(2000), WithSeed(9), WithParallelism(par)}
		got, err := eng.Query(ctx, "SELECT AVG(DepDelay) FROM flights "+
			"JOIN airports ON flights.Origin = airports.key "+
			"JOIN states ON airports.state = states.key "+
			"WHERE states.zone = 'pacific' WITHIN 40%", opts...)
		if err != nil {
			t.Fatal(err)
		}

		// Hand-built chain: zone predicate → state keys → airport keys.
		stateKeys := states.KeysWhere("zone", "pacific")
		if len(stateKeys) != 2 {
			t.Fatalf("stateKeys = %v", stateKeys)
		}
		hand, err := ss.WhereDimensionIn(Avg("DepDelay").StopAtRelError(0.4), "Origin", "state", stateKeys...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ss.Query(ctx, hand, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Groups) == 0 {
			t.Fatal("chained star query returned no groups")
		}
		sameResult(t, "snowflake", got, want)
	}
}

// TestEmptyJoinViewFetchesNoBlocks pins the provably-empty-view
// contract on the SQL path: a dimension predicate matching no keys
// compiles to an empty fact-side IN, the executor resolves the scan
// without fetching a single block (sequentially and in parallel), the
// result is a valid empty one, and session accounting follows the
// recordRun rule — the approximate run still counts and charges its δ.
func TestEmptyJoinViewFetchesNoBlocks(t *testing.T) {
	tab := smallFlights(t)
	const sqlText = "SELECT AVG(DepDelay) FROM flights " +
		"JOIN airports ON flights.Origin = airports.key " +
		"WHERE airports.region = 'mars' WITHIN 5%"
	for _, par := range []int{1, 4} {
		eng := starEngine(t, tab)
		res, err := eng.Query(context.Background(), sqlText,
			WithRoundRows(2000), WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		if res.BlocksFetched != 0 {
			t.Errorf("P=%d: provably empty view fetched %d blocks", par, res.BlocksFetched)
		}
		if len(res.Groups) != 0 {
			t.Errorf("P=%d: empty view returned groups: %+v", par, res.Groups)
		}
		if !res.Exhausted || res.Aborted {
			t.Errorf("P=%d: empty view exhausted=%v aborted=%v", par, res.Exhausted, res.Aborted)
		}
		if res.RowsCovered != tab.NumRows() {
			t.Errorf("P=%d: covered %d rows, want all %d (membership is provable for every row)",
				par, res.RowsCovered, tab.NumRows())
		}
		// recordRun rule: the run produced a (valid, empty) approximate
		// result, so it counts and charges exactly one per-query δ.
		if n := eng.QueriesRun(); n != 1 {
			t.Errorf("P=%d: QueriesRun = %d", par, n)
		}
		if spent := eng.SessionError(); spent != 1e-9 {
			t.Errorf("P=%d: SessionError = %g, want the per-query δ 1e-9", par, spent)
		}
	}

	// The grammar cannot spell "IN ()", so Explain renders the compiled
	// empty set as the provably empty view, never as bare "IN ()".
	eng := starEngine(t, tab)
	plan, err := eng.Explain(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Origin IN ∅") || !strings.Contains(plan, "provably empty view") {
		t.Errorf("Explain does not render the empty compiled IN:\n%s", plan)
	}
	if strings.Contains(plan, "IN ()") {
		t.Errorf("Explain renders an unparseable empty IN:\n%s", plan)
	}
}

// TestJoinExplainShowsCompiledKeySet covers the acceptance requirement
// that Explain shows the join and the compiled fact-side key set, for
// both the one-shot (parameterless) and bound prepared forms.
func TestJoinExplainShowsCompiledKeySet(t *testing.T) {
	tab := smallFlights(t)
	eng := starEngine(t, tab)

	plan, err := eng.Explain("SELECT AVG(DepDelay) FROM flights " +
		"JOIN airports ON flights.Origin = airports.key " +
		"WHERE airports.region = 'west' WITHIN 5%")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"JOIN airports ON flights.Origin = airports.key",
		`airports.region = "west"`,
		"COMPILE JOIN airports → Origin IN",
		"key(s)",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("Explain missing %q:\n%s", want, plan)
		}
	}

	// Parameterized: the template explain shows the slot, the bound
	// explain shows the compiled key set for the bound value.
	stmt, err := eng.Prepare("SELECT AVG(DepDelay) FROM flights " +
		"JOIN airports ON flights.Origin = airports.key WHERE airports.region = ? WITHIN 5%")
	if err != nil {
		t.Fatal(err)
	}
	if p := stmt.Explain(); !strings.Contains(p, "airports.region = $1") {
		t.Errorf("template Explain missing slot:\n%s", p)
	}
	bound, err := stmt.Bind("east")
	if err != nil {
		t.Fatal(err)
	}
	bp := bound.Explain()
	if !strings.Contains(bp, `airports.region = "east"`) || !strings.Contains(bp, "COMPILE JOIN airports → Origin IN") {
		t.Errorf("bound Explain missing compiled key set:\n%s", bp)
	}

	// An unresolvable join (dimension not registered) explains as a
	// note instead of hiding the problem or failing.
	plain := NewEngine()
	if err := plain.Register("flights", tab); err != nil {
		t.Fatal(err)
	}
	p, err := plain.Explain("SELECT COUNT(*) FROM flights JOIN ghosts ON flights.Origin = ghosts.key")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p, "unresolved") || !strings.Contains(p, "ghosts") {
		t.Errorf("unresolvable join not surfaced:\n%s", p)
	}
}

// TestJoinResolutionErrors covers the bind-time failure modes: unknown
// dimension, missing attachment, unknown attribute, and a foreign-key
// column that is not categorical on the fact table.
func TestJoinResolutionErrors(t *testing.T) {
	tab := smallFlights(t)
	eng := starEngine(t, tab)
	ctx := context.Background()

	cases := []struct {
		sql, want string
	}{
		{"SELECT COUNT(*) FROM flights JOIN ghosts ON flights.Origin = ghosts.key",
			"unknown dimension"},
		{"SELECT COUNT(*) FROM flights JOIN states ON flights.Origin = states.key",
			"AttachDimension"},
		{"SELECT COUNT(*) FROM flights JOIN airports ON flights.Origin = airports.key WHERE airports.ghost = 'x'",
			"no attribute"},
		{"SELECT COUNT(*) FROM flights JOIN airports ON flights.DepDelay = airports.key",
			"AttachDimension"},
	}
	for _, tc := range cases {
		_, err := eng.Query(ctx, tc.sql)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want mention of %q", tc.sql, err, tc.want)
		}
	}

	// A float fact column attached and joined fails at the star layer.
	if err := eng.AttachDimension("flights", "DepDelay", "airports"); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Query(ctx, "SELECT COUNT(*) FROM flights JOIN airports ON flights.DepDelay = airports.key")
	if err == nil || !strings.Contains(err.Error(), "foreign key") {
		t.Errorf("float FK join error = %v", err)
	}

	if err := eng.RegisterDimension("", NewDimension("x")); err == nil {
		t.Error("empty dimension name accepted")
	}
	if err := eng.RegisterDimension("x", nil); err == nil {
		t.Error("nil dimension accepted")
	}
	if err := eng.AttachDimension("flights", "Origin", "ghosts"); err == nil {
		t.Error("attaching an unregistered dimension accepted")
	}
	if got := eng.Dimensions(); len(got) != 2 || got[0] != "airports" || got[1] != "states" {
		t.Errorf("Dimensions() = %v", got)
	}
}

// TestRegisterReplaceRebindsTablesAndDimensions is the regression test
// for stale bind-time state: replacing a table AND a dimension while
// the plan cache holds the statement's Template and a prepared Stmt
// exists must be picked up by the very next run — Query, Stmt.Query,
// and Stream alike — because both the FROM table and the dimension
// registry resolve at bind time, not compile time.
func TestRegisterReplaceRebindsTablesAndDimensions(t *testing.T) {
	tabA, err := GenerateFlights(40_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	tabB, err := GenerateFlights(40_000, 21)
	if err != nil {
		t.Fatal(err)
	}
	// dimB maps a different airport subset to "west" than dimA.
	dimFor := func(tab *Table, stride int) *Dimension {
		origins, err := tab.CategoricalValues("Origin")
		if err != nil {
			t.Fatal(err)
		}
		d := NewDimension("airports")
		for i, code := range origins {
			region := "east"
			if i%stride == 0 {
				region = "west"
			}
			d.Add(code, map[string]string{"region": region})
		}
		return d
	}

	const joinSQL = "SELECT AVG(DepDelay) FROM flights " +
		"JOIN airports ON flights.Origin = airports.key " +
		"WHERE airports.region = ? GROUP BY DayOfWeek WITHIN 40%"
	opts := []Option{WithDelta(1e-9), WithRoundRows(2000), WithSeed(3)}
	ctx := context.Background()

	build := func(tab *Table, d *Dimension) *Engine {
		eng := NewEngine(WithQueryDelta(1e-9))
		if err := eng.Register("flights", tab); err != nil {
			t.Fatal(err)
		}
		if err := eng.RegisterDimension("airports", d); err != nil {
			t.Fatal(err)
		}
		if err := eng.AttachDimension("flights", "Origin", "airports"); err != nil {
			t.Fatal(err)
		}
		return eng
	}

	eng := build(tabA, dimFor(tabA, 2))
	stmt, err := eng.Prepare(joinSQL)
	if err != nil {
		t.Fatal(err)
	}
	boundQuery := func(e *Engine, s *Stmt) *Result {
		b, err := s.Bind("west")
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.Query(ctx, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	before := boundQuery(eng, stmt)

	// Replace the table and the dimension under the live Stmt and the
	// warm plan cache.
	if err := eng.Register("flights", tabB); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterDimension("airports", dimFor(tabB, 3)); err != nil {
		t.Fatal(err)
	}

	// Ground truth: a fresh engine built directly on the new state.
	fresh := build(tabB, dimFor(tabB, 3))
	freshStmt, err := fresh.Prepare(joinSQL)
	if err != nil {
		t.Fatal(err)
	}
	want := boundQuery(fresh, freshStmt)
	{
		w, b := *want, *before
		w.Duration, b.Duration = 0, 0
		if reflect.DeepEqual(w, b) {
			t.Fatal("test fixture too weak: replacement did not change the answer")
		}
	}

	// 1. Stmt.Query on the statement prepared before replacement.
	sameResult(t, "stmt after replace", boundQuery(eng, stmt), want)

	// 2. One-shot Query through the warm plan cache — bind the same
	// value as a literal on the fresh engine for the reference.
	hits0, _, _ := eng.PlanCacheStats()
	gotQ, err := eng.Query(ctx, joinSQLLiteral, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(ctx, joinSQLLiteral, opts...); err != nil {
		t.Fatal(err)
	}
	hits1, _, _ := eng.PlanCacheStats()
	if hits1 <= hits0 {
		t.Errorf("plan cache not exercised: hits %d → %d", hits0, hits1)
	}
	wantQ, err := fresh.Query(ctx, joinSQLLiteral, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "query after replace", gotQ, wantQ)

	// 3. Stream on the old Stmt: the cursor's final result must match
	// the fresh engine's one-shot answer byte-for-byte.
	boundS, err := stmt.Bind("west")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := boundS.Stream(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	gotS, err := rows.Final()
	if err != nil {
		t.Fatal(err)
	}
	rows.Close()
	sameResult(t, "stream after replace", gotS, want)
}

// joinSQLLiteral is the literal-value twin of the parameterized
// statement in TestRegisterReplaceRebindsTablesAndDimensions.
const joinSQLLiteral = "SELECT AVG(DepDelay) FROM flights " +
	"JOIN airports ON flights.Origin = airports.key " +
	"WHERE airports.region = 'west' GROUP BY DayOfWeek WITHIN 40%"
