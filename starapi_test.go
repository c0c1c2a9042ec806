package fastframe

import (
	"bytes"
	"context"
	"encoding/csv"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// dimensionCSVCases are TestLoadDimensionCSV's inputs and the seed
// corpus of FuzzLoadDimensionCSV. err is a substring of the refusal,
// empty for an accepted input.
var dimensionCSVCases = []struct {
	name, key, csv, err string
}{
	{"accepted", "code", "code,region,note\nORD,midwest,\nLAX,west,busy\n", ""},
	{"no key column", "nope", "code,region,note\nORD,midwest,\n", `no key column "nope"`},
	{"empty key", "code", "code,x\n,1\n", "line 2 has an empty key"},
	{"repeated key", "code", "code,x\nA,1\nB,2\nA,3\n", `line 4 repeats key "A" of line 2`},
	{"repeated key after a quoted newline", "code", "code,x\nA,\"two\nlines\"\nA,3\n", `line 4 repeats key "A" of line 2`},
	{"ragged row", "code", "code,x\nA,1,2\n", "wrong number of fields"},
	{"malformed", "code", "code,x\n\"bad", "extraneous or missing"},
	{"empty stream", "code", "", "reading CSV header"},
}

func TestLoadDimensionCSV(t *testing.T) {
	for _, c := range dimensionCSVCases {
		d, err := LoadDimensionCSV("airports", c.key, strings.NewReader(c.csv))
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: error %v, want one containing %q", c.name, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d.Name() != "airports" || d.NumRows() != 2 {
			t.Fatalf("dimension = %s/%d rows", d.Name(), d.NumRows())
		}
		// An empty CSV cell is a present, empty attribute, not an absent one.
		want := map[string]map[string]string{
			"ORD": {"region": "midwest", "note": ""},
			"LAX": {"region": "west", "note": "busy"},
		}
		if !reflect.DeepEqual(d.rows, want) {
			t.Errorf("rows = %v, want %v", d.rows, want)
		}
	}
}

// FuzzLoadDimensionCSV feeds the dimension loader arbitrary bytes: an
// input it accepts must have one row per CSV data line, non-empty and
// unique keys, and every non-key header column on every row.
func FuzzLoadDimensionCSV(f *testing.F) {
	for _, c := range dimensionCSVCases {
		f.Add(c.key, []byte(c.csv))
	}
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		d, err := LoadDimensionCSV("d", key, bytes.NewReader(data))
		if err != nil {
			return
		}
		records, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			t.Fatalf("accepted an input encoding/csv refuses: %v", err)
		}
		header := records[0]
		keyIdx := slices.Index(header, key)
		if d.NumRows() != len(records)-1 {
			t.Fatalf("%d rows from %d data lines", d.NumRows(), len(records)-1)
		}
		for _, rec := range records[1:] {
			row, ok := d.rows[rec[keyIdx]]
			if rec[keyIdx] == "" || !ok {
				t.Fatalf("key %q: empty or not stored", rec[keyIdx])
			}
			for i, h := range header {
				if _, ok := row[h]; i != keyIdx && !ok {
					t.Fatalf("key %q has no attribute %q", rec[keyIdx], h)
				}
			}
		}
	})
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
