package fastframe

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestStarSchemaPublicAPI(t *testing.T) {
	// Fact: flights; dimension: airports with a region attribute.
	tab := smallFlights(t)
	origins, err := tab.CategoricalValues("Origin")
	if err != nil {
		t.Fatal(err)
	}
	dim := NewDimension("airports")
	for i, code := range origins {
		region := "east"
		if i%2 == 0 {
			region = "west"
		}
		dim.Add(code, map[string]string{"region": region})
	}
	if dim.NumRows() != len(origins) {
		t.Fatalf("dimension rows = %d", dim.NumRows())
	}

	ss := NewStarSchema(tab)
	if err := ss.Attach("Origin", dim); err != nil {
		t.Fatal(err)
	}
	if err := ss.Attach("DepDelay", dim); err == nil {
		t.Error("attach to float column accepted")
	}

	q := Avg("DepDelay").StopAtRelError(0.4)
	q, err = ss.WhereDimension(q, "Origin", "region", "west")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.WhereDimension(q, "Origin", "ghost", "x"); err == nil {
		t.Error("unknown dimension attribute accepted")
	}

	res, err := ss.Query(context.Background(), q, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := ss.RunExact(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Groups[0].Answers[0].Contains(ex.Groups[0].Stats[0]) {
		t.Errorf("join view interval %v misses %v", res.Groups[0].Answers[0], ex.Groups[0].Stats[0])
	}
}

func TestLoadDimensionCSV(t *testing.T) {
	const csvData = "code,region,note\nORD,midwest,\nLAX,west,busy\n"
	d, err := LoadDimensionCSV("airports", "code", strings.NewReader(csvData))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "airports" || d.NumRows() != 2 {
		t.Fatalf("dimension = %s/%d rows", d.Name(), d.NumRows())
	}
	if keys := d.Keys(); len(keys) != 2 || keys[0] != "LAX" {
		t.Errorf("Keys = %v", keys)
	}
	if got := d.KeysWhere("region", "west"); len(got) != 1 || got[0] != "LAX" {
		t.Errorf("KeysWhere(region, west) = %v", got)
	}
	// Empty CSV cells are present-but-empty attributes, matchable as ''.
	if got := d.KeysWhere("note", ""); len(got) != 1 || got[0] != "ORD" {
		t.Errorf("KeysWhere(note, \"\") = %v", got)
	}

	if _, err := LoadDimensionCSV("d", "nope", strings.NewReader(csvData)); err == nil {
		t.Error("missing key column accepted")
	}
	if _, err := LoadDimensionCSV("d", "code", strings.NewReader("code,x\n,1\n")); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := LoadDimensionCSV("d", "code", strings.NewReader("code,x\n\"bad")); err == nil {
		t.Error("malformed CSV accepted")
	}
	if _, err := LoadDimensionCSV("d", "code", strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestWhereInPublicAPI(t *testing.T) {
	tab := smallFlights(t)
	q := Avg("DepDelay").WhereIn("Airline", "NW", "HP").StopAtRelError(0.3)
	if !strings.Contains(q.String(), "IN (NW, HP)") {
		t.Errorf("String() = %q", q.String())
	}
	res, err := tab.Query(context.Background(), q, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	ex, _ := tab.QueryExact(context.Background(), q)
	if !res.Groups[0].Answers[0].Contains(ex.Groups[0].Stats[0]) {
		t.Errorf("IN interval %v misses %v", res.Groups[0].Answers[0], ex.Groups[0].Stats[0])
	}
}

func TestExprAggregatePublicAPI(t *testing.T) {
	tab := smallFlights(t)
	// AVG((DepDelay)²) with derived bounds.
	q := AvgExpr(Col("DepDelay").Square()).Where("Airline", "AA").StopAtRelError(0.6)
	if !strings.Contains(q.String(), "^2") {
		t.Errorf("String() = %q", q.String())
	}
	res, err := tab.Query(context.Background(), q, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := tab.QueryExact(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Groups[0].Answers[0].Contains(ex.Groups[0].Stats[0]) {
		t.Errorf("squared interval %v misses %v", res.Groups[0].Answers[0], ex.Groups[0].Stats[0])
	}
	if res.Groups[0].Answers[0].Lo < 0 {
		t.Errorf("derived lower bound violated: %v", res.Groups[0].Answers[0].Lo)
	}

	// SUM over an expression.
	qs := SumExpr(Col("DepDelay").Mul(Const(0.5))).WhereIn("Airline", "NW").StopAtRelError(0.8)
	resS, err := tab.Query(context.Background(), qs, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	exS, _ := tab.QueryExact(context.Background(), qs)
	if !resS.Groups[0].Answers[0].Contains(exS.Groups[0].Stats[0]) {
		t.Errorf("expr SUM interval %v misses %v", resS.Groups[0].Answers[0], exS.Groups[0].Stats[0])
	}
	if math.Abs(exS.Groups[0].Stats[0]) < 1 {
		t.Errorf("expr SUM ground truth %v implausible", exS.Groups[0].Stats[0])
	}
}
