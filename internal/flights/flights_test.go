package flights

import (
	"math"
	"testing"

	"fastframe/internal/exact"
	"fastframe/internal/query"
)

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Rows: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Rows: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fa, _ := a.Float(ColDepDelay)
	fb, _ := b.Float(ColDepDelay)
	for i := range fa.Values {
		if fa.Values[i] != fb.Values[i] {
			t.Fatalf("row %d differs across identical seeds", i)
		}
	}
	c, err := Generate(Config{Rows: 2000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	fc, _ := c.Float(ColDepDelay)
	same := true
	for i := range fa.Values {
		if fa.Values[i] != fc.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestSchemaAndCatalog(t *testing.T) {
	tab, err := Generate(Config{Rows: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 5000 {
		t.Fatalf("NumRows = %d", tab.NumRows())
	}
	rb, err := tab.Bounds(ColDepDelay)
	if err != nil {
		t.Fatal(err)
	}
	if rb.A > CatalogLo || rb.B < CatalogHi {
		t.Errorf("catalog bounds %v not widened to [%d,%d]", rb, CatalogLo, CatalogHi)
	}
	fc, _ := tab.Float(ColDepDelay)
	for i, v := range fc.Values {
		if !rb.Contains(v) {
			t.Fatalf("row %d delay %v escapes catalog bounds", i, v)
		}
	}
	for _, col := range []string{ColOrigin, ColAirline, ColDayOfWeek} {
		if _, err := tab.Cat(col); err != nil {
			t.Errorf("missing categorical %s: %v", col, err)
		}
		if _, err := tab.Index(col); err != nil {
			t.Errorf("missing index %s: %v", col, err)
		}
	}
}

func TestAirportShares(t *testing.T) {
	aps := airports()
	if len(aps) != NumAirports {
		t.Fatalf("got %d airports", len(aps))
	}
	total := 0.0
	for i, ap := range aps {
		if ap.Share <= 0 {
			t.Errorf("airport %d share %v", i, ap.Share)
		}
		total += ap.Share
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
	if aps[0].Code != "ORD" {
		t.Errorf("largest airport = %s, want ORD", aps[0].Code)
	}
	if aps[0].Share < 20*aps[NumAirports-1].Share {
		t.Error("airport shares not skewed enough")
	}
}

// TestStructuralProperties verifies the dataset exhibits the regimes the
// paper's queries rely on, via exact evaluation on a mid-size sample.
func TestStructuralProperties(t *testing.T) {
	tab, err := Generate(Config{Rows: 200000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Airline means: increasing in roster order, spread over ≈[6,13].
	byAirline, err := exact.Run(tab, query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: ColDepDelay}},
		GroupBy: []string{ColAirline},
		Stop:    query.Exhaust(),
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(-1)
	for _, code := range Airlines {
		g := byAirline.Group(code)
		if g == nil {
			t.Fatalf("airline %s missing", code)
		}
		if g.Stats[0] < prev-0.8 {
			t.Errorf("airline %s mean %.2f breaks the increasing order", code, g.Stats[0])
		}
		prev = g.Stats[0]
	}
	if nw, hp := byAirline.Group("NW").Stats[0], byAirline.Group("HP").Stats[0]; nw < 2.5 || nw > 7 || hp < 13 || hp > 19 {
		t.Errorf("airline mean anchors off: NW=%.2f HP=%.2f", nw, hp)
	}

	// Airports: some negative means, some near zero, ORD above 10.
	byOrigin, err := exact.Run(tab, query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: ColDepDelay}},
		GroupBy: []string{ColOrigin},
		Stop:    query.Exhaust(),
	})
	if err != nil {
		t.Fatal(err)
	}
	negative, nearZero := 0, 0
	for _, g := range byOrigin.Groups {
		if g.Stats[0] < -3 {
			negative++
		}
		if math.Abs(g.Stats[0]) < 2.5 {
			nearZero++
		}
	}
	if negative < 3 {
		t.Errorf("only %d airports with clearly negative mean delay", negative)
	}
	if nearZero < 2 {
		t.Errorf("only %d airports with mean near zero", nearZero)
	}
	if ord := byOrigin.Group("ORD"); ord == nil || ord.Stats[0] < 10.5 {
		t.Errorf("ORD mean %v, want comfortably above 10", ord)
	}

	// Figure 8 regime: the airline-mean spread grows with $min_dep_time.
	spread := func(minDep float64) float64 {
		res, err := exact.Run(tab, Q3(minDep))
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, g := range res.Groups {
			lo = math.Min(lo, g.Stats[0])
			hi = math.Max(hi, g.Stats[0])
		}
		return hi - lo
	}
	if early, late := spread(1000), spread(2100); late <= early {
		t.Errorf("airline spread did not grow with dep time: %v -> %v", early, late)
	}
}

func TestQueryBuilders(t *testing.T) {
	qs := DefaultQueries()
	if len(qs) != 9 {
		t.Fatalf("got %d default queries", len(qs))
	}
	names := map[string]bool{}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			t.Errorf("%s invalid: %v", q.Name, err)
		}
		names[q.Name] = true
	}
	for i := 1; i <= 9; i++ {
		if !names[trafficName(i)] {
			t.Errorf("missing query %s", trafficName(i))
		}
	}
	if q := Q1("LAX", 0.25); q.Pred.CatIn[0].Values[0] != "LAX" || q.Stop.Epsilon != 0.25 {
		t.Error("Q1 parameters not applied")
	}
	if q := Q2(7.5); q.Stop.Threshold != 7.5 {
		t.Error("Q2 threshold not applied")
	}
	if q := Q3(1800); q.Pred.Ranges[0].Lo <= 1800 {
		t.Error("Q3 min dep time not applied")
	}
	if q := Q6(); len(q.GroupBy) != 2 {
		t.Error("Q6 should group by two columns")
	}
	if q := Q8(); q.Stop.K != 1 || !q.Stop.Largest {
		t.Error("Q8 should be top-1")
	}
	if q := Q3(0); q.Stop.Largest {
		t.Error("Q3 should be bottom-k")
	}
}

func trafficName(i int) string { return "F-q" + string(rune('0'+i)) }
