package fastframe

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"testing"
)

// TestFullPipelineIntegration exercises the complete downstream-user
// path across modules: build a table from CSV, widen catalog bounds,
// persist it, reload it, join it to a star-schema dimension, and run
// approximate queries (simple, IN-view, join-view, expression) against
// the reloaded table, checking every interval against exact answers.
func TestFullPipelineIntegration(t *testing.T) {
	// 1. Synthesize a CSV "export".
	rng := rand.New(rand.NewPCG(99, 1))
	var csv bytes.Buffer
	csv.WriteString("store,region_code,amount\n")
	stores := []string{"s1", "s2", "s3", "s4", "s5", "s6"}
	for i := 0; i < 30000; i++ {
		s := rng.IntN(len(stores))
		amount := float64(s+1)*7 + rng.NormFloat64()*3
		fmt.Fprintf(&csv, "%s,r%d,%.4f\n", stores[s], s%2, amount)
	}

	// 2. Load it, widen bounds, build the scramble.
	tb, err := NewTableBuilder(
		Column{Name: "amount", Kind: Float},
		Column{Name: "store", Kind: Categorical},
		Column{Name: "region_code", Kind: Categorical},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.LoadCSV(bytes.NewReader(csv.Bytes())); err != nil {
		t.Fatal(err)
	}
	tb.WidenBounds("amount", -100, 200)
	built, err := tb.Build(5)
	if err != nil {
		t.Fatal(err)
	}

	// 3. Persist and reload.
	var blob bytes.Buffer
	if _, err := built.WriteTo(&blob); err != nil {
		t.Fatal(err)
	}
	tab, err := ReadTable(&blob)
	if err != nil {
		t.Fatal(err)
	}
	if a, b, _ := tab.ColumnBounds("amount"); a != -100 || b != 200 {
		t.Fatalf("bounds lost in persistence: [%v,%v]", a, b)
	}

	// 4. Register the table and a stores dimension on an engine, and
	// build queries of every flavor.
	tiers := attrRows{}
	for i, s := range stores {
		tier := "low"
		if i >= 3 {
			tier = "high"
		}
		tiers[s] = map[string]string{"tier": tier}
	}
	eng := NewEngine()
	for _, err := range []error{
		eng.Register("sales", tab),
		eng.RegisterDimension("stores", tiers.dimension("stores")),
		eng.AttachDimension("sales", "store", "stores"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}

	queries := []QueryBuilder{
		Avg("amount").StopAtAbsError(2),
		Avg("amount").GroupBy("store").StopWhenThresholdDecided(24),
		Avg("amount").WhereIn("store", "s2", "s4").StopAtAbsError(3),
		Sum("amount").Where("region_code", "r1").StopAtRelError(0.4),
		CountRows().Where("store", "s3").StopAtRelError(0.3),
		AvgExpr(Col("amount").Mul(Const(2)).Sub(Const(5))).StopAtAbsError(4),
	}
	// The join view: the SQL JOIN must answer exactly as its builder
	// twin, WhereIn over the stores the test's own map calls high.
	high := tiers.keys(func(a map[string]string) bool { return a["tier"] == "high" })
	joinQ := Avg("amount").StopAtAbsError(3).WhereIn("store", high...)
	queries = append(queries, joinQ)
	joinSQL, err := eng.Query(context.Background(), "SELECT AVG(amount) FROM sales "+
		"JOIN stores ON sales.store = stores.key WHERE stores.tier = 'high' WITHIN ABS 3",
		WithDelta(1e-9), WithRoundRows(2000))
	if err != nil {
		t.Fatal(err)
	}
	joinB, err := tab.Query(context.Background(), joinQ, WithDelta(1e-9), WithRoundRows(2000))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "join view", joinSQL, joinB)

	for qi, q := range queries {
		res, err := tab.Query(context.Background(), q, WithDelta(1e-9), WithRoundRows(2000))
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		ex, err := tab.QueryExact(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d exact: %v", qi, err)
		}
		for _, g := range res.Groups {
			want := ex.Group(g.Key)
			if want == nil {
				t.Fatalf("query %d: spurious group %q", qi, g.Key)
			}
			iv, truth := g.Answers[0], want.Stats[0]
			if qi == 4 && truth != float64(want.Count) {
				t.Errorf("query %d group %q: COUNT(*) = %v but the group has %d rows", qi, g.Key, truth, want.Count)
			}
			if !iv.Contains(truth) {
				t.Errorf("query %d group %q: interval %v misses %v", qi, g.Key, iv, truth)
			}
		}
	}
}
