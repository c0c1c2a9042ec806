package fastframe

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// attrRows is a dimension written down as the test's own maps, key →
// attribute → value: the fixture the engine is given, and the reference
// each test computes its expected key set from.
type attrRows map[string]map[string]string

// dimension builds the engine's Dimension from the rows.
func (rows attrRows) dimension(name string) *Dimension {
	d := NewDimension(name)
	for key, attrs := range rows {
		d.Add(key, attrs)
	}
	return d
}

// keys returns the sorted keys whose attributes satisfy match.
func (rows attrRows) keys(match func(attrs map[string]string) bool) []string {
	var out []string
	for key, attrs := range rows {
		if match(attrs) {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// airportRows assigns region and state attributes to every Origin of
// the fact table, deterministically from dictionary order, and a sparse
// "hub" attribute — "yes" or "" on every third airport, absent on the
// rest — so predicates meet rows that do not define their attribute.
func airportRows(t testing.TB, tab *Table) attrRows {
	t.Helper()
	origins, err := tab.CategoricalValues("Origin")
	if err != nil {
		t.Fatal(err)
	}
	regions := []string{"west", "east", "south"}
	states := []string{"CA", "NY", "TX", "WA"}
	rows := attrRows{}
	for i, code := range origins {
		rows[code] = map[string]string{
			"region": regions[i%len(regions)],
			"state":  states[i%len(states)],
		}
		switch i % 6 {
		case 0:
			rows[code]["hub"] = "yes"
		case 3:
			rows[code]["hub"] = ""
		}
	}
	return rows
}

// stateRows is the snowflake second level: state → zone.
var stateRows = attrRows{
	"CA": {"zone": "pacific"},
	"WA": {"zone": "pacific"},
	"NY": {"zone": "atlantic"},
	"TX": {"zone": "gulf"},
}

// starEngine wires the fact table plus the airports → states snowflake
// into an engine.
func starEngine(t testing.TB, tab *Table) *Engine {
	t.Helper()
	eng := NewEngine(WithQueryDelta(1e-9))
	if err := eng.Register("flights", tab); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterDimension("airports", airportRows(t, tab).dimension("airports")); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterDimension("states", stateRows.dimension("states")); err != nil {
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
		t.Errorf("%s: result differs from its twin's:\n got %+v\nwant %+v", label, g, w)
	}
}

// TestSQLJoinMatchesHandBuiltStar is the acceptance property: for
// fixed seeds, a SQL JOIN with a dimension predicate is byte-identical
// — estimates, intervals, samples, rounds, blocks fetched — to the
// builder query WhereIn(Origin, keys...) over the keys the test reads
// off its own attribute maps, for converged, aborted, and exact runs.
func TestSQLJoinMatchesHandBuiltStar(t *testing.T) {
	tab := smallFlights(t)
	eng := starEngine(t, tab)
	west := airportRows(t, tab).keys(func(a map[string]string) bool { return a["region"] == "west" })

	stmt, err := eng.Prepare("SELECT AVG(DepDelay) FROM flights " +
		"JOIN airports ON flights.Origin = airports.key " +
		"WHERE airports.region = ? AND DepDelay > -60 " +
		"GROUP BY DayOfWeek WITHIN 40%")
	if err != nil {
		t.Fatal(err)
	}
	hand := Avg("DepDelay").WhereGreater("DepDelay", -60).
		GroupBy("DayOfWeek").StopAtRelError(0.4).WhereIn("Origin", west...)

	ctx := context.Background()
	for _, seed := range []uint64{1, 2, 3} {
		opts := []Option{WithDelta(1e-9), WithRoundRows(2000), WithSeed(seed)}
		label := fmt.Sprintf("seed=%d", seed)

		bound, err := stmt.Bind("west")
		if err != nil {
			t.Fatal(err)
		}
		got, err := bound.Query(ctx, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tab.Query(ctx, hand, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Groups) == 0 {
			t.Fatal("the reference query returned no groups")
		}
		sameResult(t, label, got, want)

		// Aborted mid-scan: stop after the first round from the
		// progress callback; both paths abort at the same barrier.
		abort := WithProgress(func(p Progress) bool { return p.Round < 1 })
		gotA, err := bound.Query(ctx, append(opts, abort)...)
		if err != nil {
			t.Fatal(err)
		}
		wantA, err := tab.Query(ctx, hand, append(opts, abort)...)
		if err != nil {
			t.Fatal(err)
		}
		if !wantA.Aborted {
			t.Fatal("progress abort did not set Aborted")
		}
		sameResult(t, label+" aborted", gotA, wantA)

		// Exact evaluation of the same join view.
		gotE, err := bound.QueryExact(ctx)
		if err != nil {
			t.Fatal(err)
		}
		wantE, err := tab.QueryExact(ctx, hand)
		if err != nil {
			t.Fatal(err)
		}
		ge, we := *gotE, *wantE
		ge.Duration, we.Duration = 0, 0
		if !reflect.DeepEqual(ge, we) {
			t.Errorf("%s exact: %+v vs %+v", label, ge, we)
		}
	}
}

// TestSQLJoinInAndNotMatchHandBuilt covers the richer dimension
// predicate forms — IN lists and != — against WhereIn over the keys the
// test computes itself. != selects the attribute-bearing complement:
// an airport with no hub attribute matches neither hub = 'yes' nor
// hub != 'yes'.
func TestSQLJoinInAndNotMatchHandBuilt(t *testing.T) {
	tab := smallFlights(t)
	eng := starEngine(t, tab)
	rows := airportRows(t, tab)
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
	eastSouth := rows.keys(func(a map[string]string) bool { return a["region"] == "east" || a["region"] == "south" })
	want, err := tab.Query(ctx, CountRows().StopAtRelError(0.3).WhereIn("Origin", eastSouth...), opts...)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "IN", got, want)

	notEqual := []struct {
		where string
		match func(a map[string]string) bool
	}{
		{"airports.region != 'west'", func(a map[string]string) bool { return a["region"] != "west" }},
		{"airports.hub != 'yes'", func(a map[string]string) bool { v, ok := a["hub"]; return ok && v != "yes" }},
	}
	for _, c := range notEqual {
		got, err := eng.Query(ctx, "SELECT COUNT(*) FROM flights "+
			"JOIN airports ON flights.Origin = airports.key "+
			"WHERE "+c.where+" WITHIN 30%", opts...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tab.Query(ctx, CountRows().StopAtRelError(0.3).WhereIn("Origin", rows.keys(c.match)...), opts...)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, c.where, got, want)
	}
}

// TestSQLSnowflakeChainMatchesHandBuilt drives a predicate over a
// second-level dimension (zone on states) through the SQL chain
// JOIN airports … JOIN states … and checks it against WhereIn over the
// airports whose state the test's own maps put in the pacific zone.
func TestSQLSnowflakeChainMatchesHandBuilt(t *testing.T) {
	tab := smallFlights(t)
	eng := starEngine(t, tab)
	pacific := airportRows(t, tab).keys(func(a map[string]string) bool { return stateRows[a["state"]]["zone"] == "pacific" })
	if len(pacific) == 0 {
		t.Fatal("no pacific airports in the fixture")
	}
	hand := Avg("DepDelay").StopAtRelError(0.4).WhereIn("Origin", pacific...)
	ctx := context.Background()
	opts := []Option{WithDelta(1e-9), WithRoundRows(2000), WithSeed(9)}
	got, err := eng.Query(ctx, "SELECT AVG(DepDelay) FROM flights "+
		"JOIN airports ON flights.Origin = airports.key "+
		"JOIN states ON airports.state = states.key "+
		"WHERE states.zone = 'pacific' WITHIN 40%", opts...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tab.Query(ctx, hand, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Groups) == 0 {
		t.Fatal("the reference query returned no groups")
	}
	sameResult(t, "snowflake", got, want)
}

// TestEmptyJoinViewFetchesNoBlocks pins the provably-empty-view
// contract on the SQL path: a dimension predicate matching no keys
// compiles to an empty fact-side IN, the executor resolves the scan
// without fetching a single block, the result is a valid empty one, and
// session accounting follows the recordRun rule — the approximate run
// still counts and charges its δ.
func TestEmptyJoinViewFetchesNoBlocks(t *testing.T) {
	tab := smallFlights(t)
	const sqlText = "SELECT AVG(DepDelay) FROM flights " +
		"JOIN airports ON flights.Origin = airports.key " +
		"WHERE airports.region = 'mars' WITHIN 5%"
	eng := starEngine(t, tab)
	res, err := eng.Query(context.Background(), sqlText, WithRoundRows(2000))
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksFetched != 0 {
		t.Errorf("provably empty view fetched %d blocks", res.BlocksFetched)
	}
	if len(res.Groups) != 0 {
		t.Errorf("empty view returned groups: %+v", res.Groups)
	}
	if !res.Exhausted || res.Aborted {
		t.Errorf("empty view exhausted=%v aborted=%v", res.Exhausted, res.Aborted)
	}
	if res.RowsCovered != tab.NumRows() {
		t.Errorf("covered %d rows, want all %d (membership is provable for every row)",
			res.RowsCovered, tab.NumRows())
	}
	// recordRun rule: the run produced a (valid, empty) approximate
	// result, so it counts and charges exactly one per-query δ.
	if n := eng.QueriesRun(); n != 1 {
		t.Errorf("QueriesRun = %d", n)
	}
	if spent := eng.SessionError(); spent != 1e-9 {
		t.Errorf("SessionError = %g, want the per-query δ 1e-9", spent)
	}

	// The grammar cannot spell "IN ()", so Explain renders the compiled
	// empty set as the provably empty view, never as bare "IN ()".
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

// salesTable is a small fact table: 20 000 sales with a "store" foreign
// key over s1…s5 and an "amount" of about 10·i + 0.5 at store si.
func salesTable(t *testing.T) *Table {
	t.Helper()
	tb, err := NewTableBuilderBlockSize(25,
		Column{Name: "amount", Kind: Float},
		Column{Name: "store", Kind: Categorical})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		s := i % 5
		amount := float64(s+1)*10 + float64(i%101)/100
		if err := tb.AppendRow(map[string]float64{"amount": amount}, map[string]string{"store": "s" + string(rune('1'+s))}); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := tb.Build(7)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// storeRows and regionRows are a two-level snowflake over salesTable:
// store → region, tier; region → zone.
var (
	storeRows = attrRows{
		"s1": {"region": "west", "tier": "a"},
		"s2": {"region": "east", "tier": "a"},
		"s3": {"region": "west", "tier": "b"},
		"s4": {"region": "east", "tier": "b"},
		"s5": {"region": "west", "tier": "b"},
	}
	regionRows = attrRows{
		"west": {"zone": "pacific"},
		"east": {"zone": "atlantic"},
	}
)

// salesEngine registers the sales table as "sales" with stores joined
// on sales.store, and regions on stores.region.
func salesEngine(t *testing.T, tab *Table, stores attrRows) *Engine {
	t.Helper()
	eng := NewEngine(WithQueryDelta(1e-9))
	for _, err := range []error{
		eng.Register("sales", tab),
		eng.RegisterDimension("stores", stores.dimension("stores")),
		eng.RegisterDimension("regions", regionRows.dimension("regions")),
		eng.AttachDimension("sales", "store", "stores"),
		eng.AttachDimension("stores", "region", "regions"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// compiledKeys returns the key set Explain shows the statement's one
// star arm compiling to (nil for the provably empty view).
func compiledKeys(t *testing.T, eng *Engine, sqlText string) []string {
	t.Helper()
	plan, err := eng.Explain(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(plan, "\n") {
		if !strings.Contains(line, "COMPILE JOIN") {
			continue
		}
		if strings.Contains(line, "IN ∅") {
			return nil
		}
		_, list, ok := strings.Cut(line, "key(s): ")
		if !ok {
			t.Fatalf("unreadable COMPILE JOIN line %q", line)
		}
		return strings.Split(list, ", ")
	}
	t.Fatalf("no COMPILE JOIN line in the plan:\n%s", plan)
	return nil
}

// TestJoinDimensionSemantics pins what a dimension predicate selects,
// through SQL: each case compiles a JOIN on the sales/stores/regions
// snowflake and checks the fact-side key set Explain shows — or the
// error, or the answer — against what the test's maps say.
func TestJoinDimensionSemantics(t *testing.T) {
	tab := salesTable(t)
	eng := salesEngine(t, tab, storeRows)
	ctx := context.Background()
	const join = "SELECT AVG(amount) FROM sales JOIN stores ON sales.store = stores.key "

	keySets := func(t *testing.T, eng *Engine, cases map[string][]string) {
		t.Helper()
		for sqlText, want := range cases {
			if got := compiledKeys(t, eng, sqlText); !reflect.DeepEqual(got, want) {
				t.Errorf("%s\ncompiles to keys %v, want %v", sqlText, got, want)
			}
		}
	}

	t.Run("basics", func(t *testing.T) {
		keySets(t, eng, map[string][]string{
			join + "WHERE stores.region = 'west'":  {"s1", "s3", "s5"},
			join + "WHERE stores.region = 'north'": nil,
		})
	})

	t.Run("operators", func(t *testing.T) {
		keySets(t, eng, map[string][]string{
			join:                                   {"s1", "s2", "s3", "s4", "s5"}, // a bare JOIN keeps every key
			join + "WHERE stores.region != 'west'": {"s2", "s4"},
			join + "WHERE stores.region <> 'west'": {"s2", "s4"},
			join + "WHERE stores.tier IN ('b')":    {"s3", "s4", "s5"},
			join + "WHERE stores.region = 'west' AND stores.tier != 'a'": {"s3", "s5"},
		})
	})

	// A row that does not define an attribute never matches a predicate
	// on it: absent is not '' under =, != or IN.
	t.Run("absent-attribute", func(t *testing.T) {
		sparse := salesEngine(t, tab, attrRows{
			"s1": {"region": "west", "note": ""},
			"s2": {"region": "east"}, // no note
			"s3": {"note": "x"},      // no region
		})
		keySets(t, sparse, map[string][]string{
			join + "WHERE stores.note = ''":                      {"s1"},
			join + "WHERE stores.note != 'x'":                    {"s1"},
			join + "WHERE stores.region != 'east'":               {"s1"},
			join + "WHERE stores.region IN ('west', 'east', '')": {"s1", "s2"},
		})
	})

	t.Run("unknown-attribute", func(t *testing.T) {
		_, err := eng.Query(ctx, join+"WHERE stores.ghost = 'x'")
		if err == nil || !strings.Contains(err.Error(), `no attribute "ghost"`) {
			t.Errorf("unknown attribute: error %v", err)
		}
	})

	t.Run("snowflake-chain", func(t *testing.T) {
		const chain = join + "JOIN regions ON stores.region = regions.key "
		keySets(t, eng, map[string][]string{
			chain + "WHERE regions.zone = 'pacific'":                       {"s1", "s3", "s5"},
			chain + "WHERE regions.zone = 'pacific' AND stores.tier = 'b'": {"s3", "s5"},
			chain + "WHERE regions.zone = 'arctic'":                        nil, // an empty chain empties the view
		})
	})

	t.Run("foreign-key", func(t *testing.T) {
		floatFK := salesEngine(t, tab, storeRows)
		if err := floatFK.AttachDimension("sales", "amount", "stores"); err != nil {
			t.Fatal(err)
		}
		_, err := floatFK.Query(ctx, "SELECT COUNT(*) FROM sales JOIN stores ON sales.amount = stores.key")
		if err == nil || !strings.Contains(err.Error(), "foreign key") {
			t.Errorf("a float foreign key: error %v", err)
		}
	})

	// West = s1, s3, s5, in equal proportion: AVG(amount) ≈ 30.5.
	t.Run("end-to-end", func(t *testing.T) {
		res, err := eng.Query(ctx, join+"WHERE stores.region = 'west' WITHIN ABS 3", WithRoundRows(1000))
		if err != nil {
			t.Fatal(err)
		}
		ex, err := eng.QueryExact(ctx, join+"WHERE stores.region = 'west'")
		if err != nil {
			t.Fatal(err)
		}
		truth := ex.Groups[0].Stats[0]
		if truth < 30 || truth > 31 {
			t.Fatalf("join ground truth %v, want ≈30.5", truth)
		}
		if iv := res.Groups[0].Answers[0]; !iv.Contains(truth) {
			t.Errorf("join view interval %v misses %v", iv, truth)
		}
	})

	// West ∧ tier b = s3, s5: AVG(amount) ≈ 40.5.
	t.Run("conjunction", func(t *testing.T) {
		ex, err := eng.QueryExact(ctx, join+"WHERE stores.region = 'west' AND stores.tier = 'b'")
		if err != nil {
			t.Fatal(err)
		}
		if v := ex.Groups[0].Stats[0]; v < 40 || v > 41 {
			t.Errorf("conjunction ground truth %v, want ≈40.5", v)
		}
	})

	t.Run("empty-view", func(t *testing.T) {
		res, err := eng.Query(ctx, join+"WHERE stores.region = 'mars' WITHIN ABS 1", WithRoundRows(1000))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Groups) != 0 || res.BlocksFetched != 0 {
			t.Errorf("empty join view: %d groups, %d blocks fetched", len(res.Groups), res.BlocksFetched)
		}
	})
}
