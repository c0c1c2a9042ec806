package exact

import (
	"math"
	"math/rand/v2"
	"testing"

	"fastframe/internal/query"
	"fastframe/internal/table"
)

func buildTable(t *testing.T) *table.Table {
	t.Helper()
	schema := table.MustSchema(
		table.ColumnSpec{Name: "v", Kind: table.Float},
		table.ColumnSpec{Name: "w", Kind: table.Float},
		table.ColumnSpec{Name: "g", Kind: table.Categorical},
		table.ColumnSpec{Name: "h", Kind: table.Categorical},
	)
	b := table.NewBuilder(schema, 7)
	// Deterministic layout: 120 rows; g cycles a,b,c; h cycles x,y.
	// v = i; w = i*2.
	for i := 0; i < 120; i++ {
		err := b.Append(table.Row{
			Floats: map[string]float64{"v": float64(i), "w": float64(2 * i)},
			Cats: map[string]string{
				"g": []string{"a", "b", "c"}[i%3],
				"h": []string{"x", "y"}[i%2],
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tab, err := b.Build(rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestUngroupedAvg(t *testing.T) {
	tab := buildTable(t)
	res, err := Run(tab, query.Query{
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "v"}, {Kind: query.Sum, Column: "v"}},
		Stop: query.Exhaust(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
	g := res.Groups[0]
	if g.Count != 120 || g.Stats[0] != 59.5 || g.Stats[1] != 7140 {
		t.Errorf("got %+v, want count 120 avg 59.5 sum 7140", g)
	}
	if g.Key != "" {
		t.Errorf("ungrouped key = %q", g.Key)
	}
}

func TestGroupedAvg(t *testing.T) {
	tab := buildTable(t)
	res, err := Run(tab, query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "v"}},
		GroupBy: []string{"g"},
		Stop:    query.Exhaust(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 3 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
	// Group "a": rows 0,3,...,117 → mean 58.5. "b": 1,4,...,118 → 59.5.
	// "c": 2,5,...,119 → 60.5. Each has 40 rows.
	want := map[string]float64{"a": 58.5, "b": 59.5, "c": 60.5}
	for key, avg := range want {
		g := res.Group(key)
		if g == nil {
			t.Fatalf("missing group %q", key)
		}
		if g.Count != 40 || g.Stats[0] != avg {
			t.Errorf("group %s = %+v, want count 40 avg %v", key, g, avg)
		}
	}
	if res.Group("zz") != nil {
		t.Error("lookup of absent group succeeded")
	}
}

func TestCompositeGroupKeyOrder(t *testing.T) {
	tab := buildTable(t)
	res, err := Run(tab, query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Count}},
		GroupBy: []string{"g", "h"},
		Stop:    query.Exhaust(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 6 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
	total := 0
	for _, g := range res.Groups {
		total += g.Count
	}
	if total != 120 {
		t.Errorf("counts sum to %d", total)
	}
	if res.Group("a|x") == nil || res.Group("c|y") == nil {
		t.Error("composite keys malformed")
	}
}

func TestPredicates(t *testing.T) {
	tab := buildTable(t)
	res, err := Run(tab, query.Query{
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "v"}},
		Pred: query.Predicate{}.AndCatIn("g", "a").AndRange("v", 30, 90),
		Stop: query.Exhaust(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Group-a rows in [30,90]: 30,33,...,90 → 21 rows, mean 60.
	g := res.Groups[0]
	if g.Count != 21 || g.Stats[0] != 60 {
		t.Errorf("got %+v, want count 21 avg 60", g)
	}
}

func TestPredicateNoMatch(t *testing.T) {
	tab := buildTable(t)
	res, err := Run(tab, query.Query{
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "v"}},
		Pred: query.Predicate{}.AndCatIn("g", "nope"),
		Stop: query.Exhaust(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 {
		t.Errorf("groups = %d, want 0", len(res.Groups))
	}
}

func TestSumAndCountKinds(t *testing.T) {
	tab := buildTable(t)
	sum, err := Run(tab, query.Query{
		Aggs: []query.Aggregate{{Kind: query.Sum, Column: "w"}},
		Stop: query.Exhaust(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Groups[0].Stats[0] != 14280 {
		t.Errorf("sum = %v", sum.Groups[0].Stats[0])
	}
	cnt, err := Run(tab, query.Query{Aggs: []query.Aggregate{{Kind: query.Count}}, Stop: query.Exhaust()})
	if err != nil {
		t.Fatal(err)
	}
	if gv := cnt.Groups[0]; gv.Count != 120 || gv.Stats[0] != 120 {
		t.Errorf("count = %d, COUNT(*) = %v", gv.Count, gv.Stats[0])
	}
}

func TestErrors(t *testing.T) {
	tab := buildTable(t)
	if _, err := Run(tab, query.Query{Aggs: []query.Aggregate{{Kind: query.Avg}}, Stop: query.Exhaust()}); err == nil {
		t.Error("missing column accepted")
	}
	if _, err := Run(tab, query.Query{
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "missing"}}, Stop: query.Exhaust(),
	}); err == nil {
		t.Error("unknown agg column accepted")
	}
	if _, err := Run(tab, query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "v"}},
		GroupBy: []string{"v"}, Stop: query.Exhaust(),
	}); err == nil {
		t.Error("GROUP BY float accepted")
	}
	if _, err := Run(tab, query.Query{
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "v"}},
		Pred: query.Predicate{}.AndCatIn("missing", "x"), Stop: query.Exhaust(),
	}); err == nil {
		t.Error("unknown predicate column accepted")
	}
	if _, err := Run(tab, query.Query{
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "v"}},
		Pred: query.Predicate{}.AndRange("missing", 0, 1), Stop: query.Exhaust(),
	}); err == nil {
		t.Error("unknown range column accepted")
	}
}

func TestScrambleOrderIndependence(t *testing.T) {
	// The same logical rows shuffled with different seeds must give the
	// same exact answers.
	build := func(seed uint64) *table.Table {
		schema := table.MustSchema(
			table.ColumnSpec{Name: "v", Kind: table.Float},
			table.ColumnSpec{Name: "g", Kind: table.Categorical},
		)
		b := table.NewBuilder(schema, 25)
		for i := 0; i < 500; i++ {
			_ = b.Append(table.Row{
				Floats: map[string]float64{"v": float64(i * i % 97)},
				Cats:   map[string]string{"g": []string{"p", "q"}[i%2]},
			})
		}
		tab, _ := b.Build(rand.New(rand.NewPCG(seed, 0)))
		return tab
	}
	q := query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "v"}},
		GroupBy: []string{"g"},
		Stop:    query.Exhaust(),
	}
	r1, _ := Run(build(1), q)
	r2, _ := Run(build(999), q)
	for _, g1 := range r1.Groups {
		g2 := r2.Group(g1.Key)
		if g2 == nil || math.Abs(g1.Stats[0]-g2.Stats[0]) > 1e-9 || g1.Count != g2.Count {
			t.Errorf("group %s differs across scrambles", g1.Key)
		}
	}
}
