package sql

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseJoinGolden(t *testing.T) {
	c, err := Compile("SELECT AVG(DepDelay) FROM flights " +
		"JOIN carriers ON flights.Airline = carriers.key " +
		"WHERE carriers.region = 'west' AND DepDelay > 0 " +
		"GROUP BY Origin WITHIN 50%")
	if err != nil {
		t.Fatal(err)
	}
	wantJoin := Join{Dim: "carriers", KeyColumn: "key", Parent: "flights", ParentColumn: "Airline", Pos: 34}
	if len(c.Joins) != 1 {
		t.Fatalf("Joins = %+v", c.Joins)
	}
	if got := c.Joins[0]; got != wantJoin {
		t.Errorf("Join = %+v, want %+v", got, wantJoin)
	}
	if len(c.DimPreds) != 1 {
		t.Fatalf("DimPreds = %+v", c.DimPreds)
	}
	dp := c.DimPreds[0]
	if dp.Dim != "carriers" || dp.Attr != "region" || dp.Op != PredEq || !reflect.DeepEqual(dp.Values, []string{"west"}) {
		t.Errorf("DimPred = %+v", dp)
	}
	// The dimension predicate must NOT be lowered into the logical
	// query — it resolves at bind time against the registry.
	if len(c.Query.Pred.CatIn) != 0 {
		t.Errorf("dimension predicate leaked into Query.Pred: %+v", c.Query.Pred)
	}
	if len(c.Query.Pred.Ranges) != 1 || c.Query.Pred.Ranges[0].Column != "DepDelay" {
		t.Errorf("fact predicate missing: %+v", c.Query.Pred)
	}
	if len(c.Query.GroupBy) != 1 || c.Query.GroupBy[0] != "Origin" {
		t.Errorf("GroupBy = %v", c.Query.GroupBy)
	}
}

func TestParseJoinNormalizesOnOrder(t *testing.T) {
	a, err := Compile("SELECT COUNT(*) FROM f JOIN d ON f.fk = d.key")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile("SELECT COUNT(*) FROM f JOIN d ON d.key = f.fk")
	if err != nil {
		t.Fatal(err)
	}
	a.Joins[0].Pos, b.Joins[0].Pos = 0, 0
	if a.Joins[0] != b.Joins[0] {
		t.Errorf("ON operand order changed the normalized join: %+v vs %+v", a.Joins[0], b.Joins[0])
	}
}

func TestParseSnowflakeChain(t *testing.T) {
	c, err := Compile("SELECT AVG(x) FROM f " +
		"JOIN d ON f.fk = d.key " +
		"JOIN e ON d.sub = e.key " +
		"WHERE e.zone = 'z' AND d.tier != 'a' AND d.cls IN ('p', 'q')")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Joins) != 2 {
		t.Fatalf("Joins = %+v", c.Joins)
	}
	if c.Joins[1].Parent != "d" || c.Joins[1].ParentColumn != "sub" || c.Joins[1].Dim != "e" {
		t.Errorf("chained join = %+v", c.Joins[1])
	}
	if len(c.DimPreds) != 3 {
		t.Fatalf("DimPreds = %+v", c.DimPreds)
	}
	if c.DimPreds[1].Op != PredNe || c.DimPreds[1].Values[0] != "a" {
		t.Errorf("!= pred = %+v", c.DimPreds[1])
	}
	if c.DimPreds[2].Op != PredIn || !reflect.DeepEqual(c.DimPreds[2].Values, []string{"p", "q"}) {
		t.Errorf("IN pred = %+v", c.DimPreds[2])
	}
}

func TestJoinParams(t *testing.T) {
	tmpl, err := Prepare("SELECT AVG(x) FROM f JOIN d ON f.fk = d.key " +
		"WHERE d.region = ? AND d.tier IN (?, 'b') AND d.zone != ? AND x > ?")
	if err != nil {
		t.Fatal(err)
	}
	if n := tmpl.NumParams(); n != 4 {
		t.Fatalf("NumParams = %d", n)
	}
	if ctx := tmpl.Params()[0].Context; ctx != "WHERE d.region = ?" {
		t.Errorf("param 0 context = %q", ctx)
	}
	if ctx := tmpl.Params()[2].Context; ctx != "WHERE d.zone != ?" {
		t.Errorf("param 2 context = %q", ctx)
	}
	c, err := tmpl.Bind("west", "a", "cold", 3.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.DimPreds) != 3 {
		t.Fatalf("DimPreds = %+v", c.DimPreds)
	}
	if c.DimPreds[0].Values[0] != "west" || c.DimPreds[2].Values[0] != "cold" {
		t.Errorf("bound dim values = %+v", c.DimPreds)
	}
	// IN binds append after literals.
	if !reflect.DeepEqual(c.DimPreds[1].Values, []string{"b", "a"}) {
		t.Errorf("bound IN values = %v", c.DimPreds[1].Values)
	}
	// Binding different arguments must not alias the first plan.
	c2, err := tmpl.Bind("east", "c", "hot", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if c.DimPreds[0].Values[0] != "west" || c2.DimPreds[0].Values[0] != "east" {
		t.Errorf("bind aliasing: %v / %v", c.DimPreds[0].Values, c2.DimPreds[0].Values)
	}
}

func TestQualifiedFactColumns(t *testing.T) {
	// A FROM-table qualifier is an alias for the bare column everywhere.
	a, err := Compile("SELECT AVG(flights.DepDelay) FROM flights JOIN d ON flights.fk = d.key " +
		"WHERE flights.Origin = 'ORD' GROUP BY flights.DayOfWeek")
	if err != nil {
		t.Fatal(err)
	}
	if a.Query.Aggs[0].Column != "DepDelay" {
		t.Errorf("Aggs = %+v", a.Query.Aggs)
	}
	if len(a.Query.Pred.CatIn) != 1 || a.Query.Pred.CatIn[0].Column != "Origin" {
		t.Errorf("Pred = %+v", a.Query.Pred)
	}
	if len(a.Query.GroupBy) != 1 || a.Query.GroupBy[0] != "DayOfWeek" {
		t.Errorf("GroupBy = %v", a.Query.GroupBy)
	}
	if len(a.DimPreds) != 0 {
		t.Errorf("fact predicate classified as dimension predicate: %+v", a.DimPreds)
	}
}

func TestJoinErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"SELECT AVG(x) FROM f JOIN f ON f.a = f.key", "to itself"},
		{"SELECT AVG(x) FROM f JOIN d ON f.a = d.key JOIN d ON f.b = d.key", "joined twice"},
		{"SELECT AVG(x) FROM f JOIN d ON g.a = d.key", "neither the FROM table nor an earlier JOIN"},
		{"SELECT AVG(x) FROM f JOIN d ON f.a = f.b", "must reference the joined table"},
		{"SELECT AVG(x) FROM f JOIN d ON d.key = d.key", "on both sides"},
		{"SELECT AVG(x) FROM f JOIN d ON f.a = d.id", "dimension key column d.key"},
		{"SELECT AVG(x) FROM f JOIN d ON a = d.key", "qualified as table.column"},
		{"SELECT AVG(x) FROM f WHERE g != 'v'", "dimension attributes only"},
		{"SELECT AVG(x) FROM f JOIN d ON f.a = d.key WHERE d.r > 5", "categorical"},
		{"SELECT AVG(x) FROM f WHERE d.r = 'v'", "unknown table qualifier"},
		{"SELECT AVG(x) FROM f JOIN d ON f.a = d.key GROUP BY d.r", "group by the fact foreign-key"},
		{"SELECT AVG(d.attr) FROM f JOIN d ON f.a = d.key", "never scanned"},
		{"SELECT AVG(q.x) FROM f", "unknown table qualifier"},
		{"SELECT AVG(x) FROM f WHERE x ! 3", "did you mean"},
	}
	for _, tc := range cases {
		_, err := Compile(tc.src)
		if err == nil {
			t.Errorf("%q: accepted", tc.src)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %q does not mention %q", tc.src, err, tc.want)
		}
	}
}

func TestExplainJoinRendering(t *testing.T) {
	tmpl, err := Prepare("SELECT AVG(x) FROM f JOIN d ON f.fk = d.key " +
		"JOIN e ON d.sub = e.key WHERE d.region != ? AND e.zone IN ('a', ?) WITHIN 5%")
	if err != nil {
		t.Fatal(err)
	}
	plan := tmpl.Explain()
	for _, want := range []string{
		"JOIN d ON f.fk = d.key",
		"JOIN e ON d.sub = e.key",
		"d.region != $1",
		`e.zone IN ("a", $2)`,
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("Explain missing %q:\n%s", want, plan)
		}
	}
	c, err := tmpl.Bind("west", "z")
	if err != nil {
		t.Fatal(err)
	}
	bound := c.Explain()
	for _, want := range []string{`d.region != "west"`, `e.zone IN ("a", "z")`} {
		if !strings.Contains(bound, want) {
			t.Errorf("bound Explain missing %q:\n%s", want, bound)
		}
	}
}

// TestJoinCaseInsensitiveKeywords pins JOIN/ON keyword handling.
func TestJoinCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Compile("select count(*) from f join d on f.a = d.key where d.x <> 'v'"); err != nil {
		t.Fatalf("lower-case join rejected: %v", err)
	}
}
