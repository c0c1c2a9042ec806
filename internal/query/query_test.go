package query

import (
	"math"
	"strings"
	"testing"
)

func TestAggKindString(t *testing.T) {
	if Avg.String() != "AVG" || Sum.String() != "SUM" || Count.String() != "COUNT" {
		t.Error("AggKind.String wrong")
	}
	if !strings.Contains(AggKind(9).String(), "9") {
		t.Error("unknown AggKind should include value")
	}
	// Every kind has a spelling. That each parses back to its kind, and
	// that an unknown name is refused, is serve's TestWireRoundTripEveryKind.
	for k := AggKind(0); k < NumAggKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no spelling", int(k))
		}
	}
}

func TestAggregateString(t *testing.T) {
	if got := (Aggregate{Kind: Avg, Column: "DepDelay"}).String(); got != "AVG(DepDelay)" {
		t.Errorf("got %q", got)
	}
	if got := (Aggregate{Kind: Count}).String(); got != "COUNT(*)" {
		t.Errorf("got %q", got)
	}
}

func TestPredicateBuilders(t *testing.T) {
	p := Predicate{}
	if !p.IsTrivial() {
		t.Error("zero predicate not trivial")
	}
	p2 := p.AndCatIn("Origin", "ORD")
	if p2.IsTrivial() || len(p2.CatIn) != 1 {
		t.Error("AndCatIn failed")
	}
	if len(p.CatIn) != 0 {
		t.Error("AndCatIn mutated the receiver")
	}
	p3 := p2.AndGreater("DepTime", 1300)
	if len(p3.Ranges) != 1 {
		t.Fatal("AndGreater failed")
	}
	r := p3.Ranges[0]
	if !(r.Lo > 1300) || !math.IsInf(r.Hi, 1) {
		t.Errorf("AndGreater range = %+v", r)
	}
	p4 := p3.AndRange("DepDelay", -10, 10)
	if len(p4.Ranges) != 2 {
		t.Error("AndRange failed")
	}
	if len(p3.Ranges) != 1 {
		t.Error("AndRange mutated the receiver")
	}
}

func TestStopConstructors(t *testing.T) {
	if s := FixedSamples(100); s.Kind != StopFixedSamples || s.Samples != 100 {
		t.Error("FixedSamples wrong")
	}
	if s := AbsWidth(0.5); s.Kind != StopAbsWidth || s.Epsilon != 0.5 {
		t.Error("AbsWidth wrong")
	}
	if s := RelWidth(0.1); s.Kind != StopRelWidth || s.Epsilon != 0.1 {
		t.Error("RelWidth wrong")
	}
	if s := Threshold(7); s.Kind != StopThreshold || s.Threshold != 7 {
		t.Error("Threshold wrong")
	}
	if s := TopK(5); s.Kind != StopTopK || s.K != 5 || !s.Largest {
		t.Error("TopK wrong")
	}
	if s := BottomK(2); s.Kind != StopTopK || s.K != 2 || s.Largest {
		t.Error("BottomK wrong")
	}
	if s := Ordered(); s.Kind != StopOrdered {
		t.Error("Ordered wrong")
	}
	if s := Exhaust(); s.Kind != StopExhaust {
		t.Error("Exhaust wrong")
	}
}

func TestStopKindString(t *testing.T) {
	names := map[StopKind]string{
		StopFixedSamples: "fixed-samples",
		StopAbsWidth:     "abs-width",
		StopRelWidth:     "rel-width",
		StopThreshold:    "threshold",
		StopTopK:         "top-k",
		StopOrdered:      "ordered",
		StopExhaust:      "exhaust",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestQueryString(t *testing.T) {
	q := Query{
		Name:    "F-q2",
		Aggs:    []Aggregate{{Kind: Avg, Column: "DepDelay"}},
		Pred:    Predicate{}.AndCatIn("Origin", "ORD").AndGreater("DepTime", 1300),
		GroupBy: []string{"Airline"},
		Stop:    Threshold(0),
	}
	s := q.String()
	for _, want := range []string{"AVG(DepDelay)", `Origin = "ORD"`, "DepTime >=", "GROUP BY Airline", "threshold"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	q2 := Query{Aggs: []Aggregate{{Kind: Avg, Column: "x"}}, Pred: Predicate{}.AndRange("x", 1, 2)}
	if !strings.Contains(q2.String(), "BETWEEN 1 AND 2") {
		t.Errorf("range rendering: %q", q2.String())
	}
	q3 := Query{Aggs: []Aggregate{{Kind: Avg, Column: "x"}},
		Pred: Predicate{Ranges: []FloatRange{{Column: "x", Lo: math.Inf(-1), Hi: 5}}}}
	if !strings.Contains(q3.String(), "x <= 5") {
		t.Errorf("upper-only rendering: %q", q3.String())
	}
}

func TestValidate(t *testing.T) {
	ok := Query{Aggs: []Aggregate{{Kind: Avg, Column: "x"}}, Stop: AbsWidth(1)}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	cases := []Query{
		{Aggs: []Aggregate{{Kind: Avg}}, Stop: AbsWidth(1)},                                  // no column
		{Aggs: []Aggregate{{Kind: Avg, Column: "x"}}, Stop: FixedSamples(0)},                 // bad samples
		{Aggs: []Aggregate{{Kind: Avg, Column: "x"}}, Stop: AbsWidth(0)},                     // bad epsilon
		{Aggs: []Aggregate{{Kind: Avg, Column: "x"}}, Stop: RelWidth(-1)},                    // bad epsilon
		{Aggs: []Aggregate{{Kind: Avg, Column: "x"}}, Stop: TopK(0), GroupBy: []string{"g"}}, // bad K
		{Aggs: []Aggregate{{Kind: Avg, Column: "x"}}, Stop: TopK(1)},                         // no group by
		{Aggs: []Aggregate{{Kind: Avg, Column: "x"}}, Stop: Ordered()},                       // no group by
		{Stop: AbsWidth(1)}, // no aggregates
		{Aggs: []Aggregate{{Kind: Count}}, Pred: Predicate{}.AndRange("x", math.NaN(), 1000), Stop: AbsWidth(1)},     // NaN bound
		{Aggs: []Aggregate{{Kind: Avg, Column: "x"}}, Pred: Predicate{}.AndRange("x", 1000, 900), Stop: AbsWidth(1)}, // reversed
	}
	for i, q := range cases {
		if err := q.Validate(); err == nil {
			t.Errorf("case %d: invalid query accepted: %s", i, q)
		}
	}
	// A point range and one-sided ranges are not empty.
	for _, p := range []Predicate{
		Predicate{}.AndRange("x", 5, 5),
		Predicate{}.AndGreater("x", math.MaxFloat64),
		Predicate{}.AndRange("x", math.Inf(-1), math.Inf(-1)),
	} {
		q := Query{Aggs: []Aggregate{{Kind: Count}}, Pred: p, Stop: AbsWidth(1)}
		if err := q.Validate(); err != nil {
			t.Errorf("%s rejected: %v", q, err)
		}
	}
	// An empty SELECT list is its own error, not an AVG without a column.
	if err := (Query{Stop: AbsWidth(1)}).Validate(); err == nil || !strings.Contains(err.Error(), "empty SELECT list") {
		t.Errorf("empty SELECT list: %v", err)
	}
	// COUNT needs no column.
	cnt := Query{Aggs: []Aggregate{{Kind: Count}}, Stop: RelWidth(0.1)}
	if err := cnt.Validate(); err != nil {
		t.Errorf("COUNT query rejected: %v", err)
	}
}
