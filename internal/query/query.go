// Package query defines the logical query model FastFrame executes:
// a SELECT list of aggregates (AVG, SUM, COUNT, MEDIAN, PERCENTILE,
// VAR, STDDEV, COUNT DISTINCT) evaluated over one shared view in a
// single physical scan, an optional conjunctive predicate, an optional
// GROUP BY over categorical columns, and a stopping condition
// describing when the approximate answer is good enough (§4.2 of the
// paper). The nine Flights evaluation queries F-q1..F-q9 are expressed
// in this model by package flights.
package query

import (
	"fmt"
	"math"
	"strings"

	"fastframe/internal/expr"
)

// AggKind identifies the aggregate function.
type AggKind int

const (
	// Avg computes the mean of the aggregate column over the view.
	Avg AggKind = iota
	// Sum computes the total; its CI combines an AVG CI and a COUNT CI
	// (§4.1).
	Sum
	// Count computes the number of view rows; its CI comes from the
	// selectivity bound of Lemma 5.
	Count
	// Median computes the p=0.5 quantile of the aggregate input; its CI
	// inverts a DKW band around the retained sample's empirical CDF.
	Median
	// Percentile computes the p-quantile for p = Aggregate.P ∈ (0,1),
	// with the same DKW-band interval as Median.
	Percentile
	// Var computes the population variance VAR(D) = E[X²] − E[X]². Its
	// CI combines a mean bounder over X and one over X² by interval
	// arithmetic, clamped to Popoviciu's (b−a)²/4.
	Var
	// Stddev computes sqrt(VAR); its CI is the monotone square-root
	// image of the Var interval.
	Stddev
	// CountDistinct computes the number of distinct values of a
	// categorical column within the view. The lower bound is the
	// distinct values already observed (deterministic); the upper bound
	// caps the unseen ones by the view-size CI and the dictionary.
	CountDistinct
	// NumAggKinds counts the kinds above, which are [0, NumAggKinds).
	NumAggKinds
)

// aggNames is the one table of aggregate spellings: String reads it and
// the public Agg's UnmarshalText inverts it.
var aggNames = [NumAggKinds]string{
	Avg:           "AVG",
	Sum:           "SUM",
	Count:         "COUNT",
	Median:        "MEDIAN",
	Percentile:    "PERCENTILE",
	Var:           "VAR",
	Stddev:        "STDDEV",
	CountDistinct: "COUNT DISTINCT",
}

// String names the aggregate function.
func (k AggKind) String() string {
	if k < 0 || k >= NumAggKinds {
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
	return aggNames[k]
}

// Aggregate is one aggregate clause of the SELECT list. For the
// continuous-input kinds (everything but Count and CountDistinct) the
// input is either a single continuous column (Column) or an arbitrary
// expression over continuous columns (Expr, taking precedence); range
// bounds for expressions are derived from the catalog per Appendix B.
// CountDistinct takes a categorical Column; Count takes no input.
type Aggregate struct {
	Kind   AggKind
	Column string
	Expr   expr.Expr
	// P is the quantile for Percentile, in (0, 1). Ignored by every
	// other kind (Median is fixed at 0.5).
	P float64
}

// Quantile returns the quantile an order-statistic aggregate computes:
// 0.5 for Median, P for Percentile, 0 otherwise.
func (a Aggregate) Quantile() float64 {
	switch a.Kind {
	case Median:
		return 0.5
	case Percentile:
		return a.P
	default:
		return 0
	}
}

func (a Aggregate) String() string {
	switch a.Kind {
	case Count:
		return "COUNT(*)"
	case CountDistinct:
		return fmt.Sprintf("COUNT(DISTINCT %s)", a.Column)
	case Percentile:
		if a.Expr != nil {
			return fmt.Sprintf("PERCENTILE(%s, %g)", a.Expr, a.P)
		}
		return fmt.Sprintf("PERCENTILE(%s, %g)", a.Column, a.P)
	}
	if a.Expr != nil {
		return fmt.Sprintf("%s(%s)", a.Kind, a.Expr)
	}
	return fmt.Sprintf("%s(%s)", a.Kind, a.Column)
}

// CatIn restricts a categorical column to a set of values. It is the
// one categorical atom: equality is its one-value case, and join views
// compile to it too, since a dimension-table predicate in a snowflake
// schema reduces to "fact.fk IN {matching dimension keys}" (the paper's
// §Extensibility / Appendix join discussion).
type CatIn struct {
	Column string
	Values []string
}

// FloatRange restricts a continuous column to [Lo, Hi] (inclusive; use
// ±Inf for one-sided ranges).
type FloatRange struct {
	Column string
	Lo, Hi float64
}

// Predicate is a conjunction of atoms. The zero value matches all rows.
type Predicate struct {
	CatIn  []CatIn
	Ranges []FloatRange
}

// IsTrivial reports whether the predicate matches every row.
func (p Predicate) IsTrivial() bool {
	return len(p.CatIn) == 0 && len(p.Ranges) == 0
}

// AndCatIn returns p extended with a categorical set-membership atom;
// AndCatIn(column, value) is column = value.
func (p Predicate) AndCatIn(column string, values ...string) Predicate {
	p.CatIn = append(append([]CatIn(nil), p.CatIn...),
		CatIn{Column: column, Values: append([]string(nil), values...)})
	return p
}

// AndGreater returns p extended with column > lo (implemented as the
// closed range [nextafter(lo, +Inf), +Inf]).
func (p Predicate) AndGreater(column string, lo float64) Predicate {
	p.Ranges = append(append([]FloatRange(nil), p.Ranges...),
		FloatRange{Column: column, Lo: math.Nextafter(lo, math.Inf(1)), Hi: math.Inf(1)})
	return p
}

// AndRange returns p extended with lo ≤ column ≤ hi.
func (p Predicate) AndRange(column string, lo, hi float64) Predicate {
	p.Ranges = append(append([]FloatRange(nil), p.Ranges...),
		FloatRange{Column: column, Lo: lo, Hi: hi})
	return p
}

// StopKind enumerates the stopping conditions of §4.2.
type StopKind int

const (
	// StopFixedSamples (①): stop once every group has the desired number
	// of contributing samples.
	StopFixedSamples StopKind = iota
	// StopAbsWidth (②): stop once every group's CI width < Epsilon.
	StopAbsWidth
	// StopRelWidth (③): stop once every group's relative CI width < Epsilon.
	StopRelWidth
	// StopThreshold (④): stop once every group's CI excludes Threshold.
	StopThreshold
	// StopTopK (⑤): stop once the K groups with largest (Largest=true)
	// or smallest aggregates are separated from the rest.
	StopTopK
	// StopOrdered (⑥): stop once no two groups' CIs overlap.
	StopOrdered
	// StopExhaust: no early stopping; scan everything (used as a guard
	// and by COUNT-only queries with no condition).
	StopExhaust
)

// String names the stopping condition.
func (k StopKind) String() string {
	switch k {
	case StopFixedSamples:
		return "fixed-samples"
	case StopAbsWidth:
		return "abs-width"
	case StopRelWidth:
		return "rel-width"
	case StopThreshold:
		return "threshold"
	case StopTopK:
		return "top-k"
	case StopOrdered:
		return "ordered"
	case StopExhaust:
		return "exhaust"
	default:
		return fmt.Sprintf("StopKind(%d)", int(k))
	}
}

// Stop is a stopping condition with its parameters.
type Stop struct {
	Kind      StopKind
	Samples   int     // StopFixedSamples
	Epsilon   float64 // StopAbsWidth, StopRelWidth
	Threshold float64 // StopThreshold
	K         int     // StopTopK
	Largest   bool    // StopTopK: separate the K largest (else smallest)
	// AggIndex is the SELECT-list position of the aggregate the
	// threshold/top-k/ordered rules watch (HAVING / ORDER BY target).
	// Width rules apply to every aggregate and ignore it.
	AggIndex int
}

// FixedSamples returns stopping condition ①.
func FixedSamples(m int) Stop { return Stop{Kind: StopFixedSamples, Samples: m} }

// AbsWidth returns stopping condition ②.
func AbsWidth(eps float64) Stop { return Stop{Kind: StopAbsWidth, Epsilon: eps} }

// RelWidth returns stopping condition ③.
func RelWidth(eps float64) Stop { return Stop{Kind: StopRelWidth, Epsilon: eps} }

// Threshold returns stopping condition ④.
func Threshold(v float64) Stop { return Stop{Kind: StopThreshold, Threshold: v} }

// TopK returns stopping condition ⑤ for the K largest aggregates.
func TopK(k int) Stop { return Stop{Kind: StopTopK, K: k, Largest: true} }

// BottomK returns stopping condition ⑤ for the K smallest aggregates.
func BottomK(k int) Stop { return Stop{Kind: StopTopK, K: k, Largest: false} }

// Ordered returns stopping condition ⑥.
func Ordered() Stop { return Stop{Kind: StopOrdered} }

// Exhaust returns the no-early-stopping condition.
func Exhaust() Stop { return Stop{Kind: StopExhaust} }

// Query is one approximate query: a SELECT list of aggregates over one
// shared view, evaluated in a single physical scan.
type Query struct {
	Name string // identifier used in benchmark output (e.g. "F-q1")
	// Aggs is the SELECT list (at least one aggregate). All aggregates
	// share the view (Pred, GroupBy) and the scan; the query's δ budget
	// is Bonferroni-split across them so the joint guarantee holds.
	Aggs    []Aggregate
	Pred    Predicate
	GroupBy []string // categorical columns; empty means one global group
	Stop    Stop
}

// String renders a compact SQL-ish description.
func (q Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, a := range q.Aggs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s", a)
	}
	if !q.Pred.IsTrivial() {
		b.WriteString(" WHERE ")
		first := true
		for _, ci := range q.Pred.CatIn {
			if !first {
				b.WriteString(" AND ")
			}
			switch len(ci.Values) {
			case 0:
				// No surface syntax spells an empty IN; render the
				// provably-empty view explicitly instead of "IN ()".
				fmt.Fprintf(&b, "%s IN ∅ (provably empty)", ci.Column)
			case 1:
				fmt.Fprintf(&b, "%s = %q", ci.Column, ci.Values[0])
			default:
				fmt.Fprintf(&b, "%s IN (%s)", ci.Column, strings.Join(ci.Values, ", "))
			}
			first = false
		}
		for _, r := range q.Pred.Ranges {
			if !first {
				b.WriteString(" AND ")
			}
			switch {
			case math.IsInf(r.Hi, 1):
				fmt.Fprintf(&b, "%s >= %.6g", r.Column, r.Lo)
			case math.IsInf(r.Lo, -1):
				fmt.Fprintf(&b, "%s <= %.6g", r.Column, r.Hi)
			default:
				fmt.Fprintf(&b, "%s BETWEEN %.6g AND %.6g", r.Column, r.Lo, r.Hi)
			}
			first = false
		}
	}
	if len(q.GroupBy) > 0 {
		fmt.Fprintf(&b, " GROUP BY %s", strings.Join(q.GroupBy, ", "))
	}
	fmt.Fprintf(&b, " [stop: %s]", q.Stop.Kind)
	return b.String()
}

// Validate performs structural checks that do not need a table.
func (q Query) Validate() error {
	aggs := q.Aggs
	if len(aggs) == 0 {
		return fmt.Errorf("query %s: empty SELECT list", q.Name)
	}
	for _, a := range aggs {
		switch a.Kind {
		case Count:
			// No input.
		case CountDistinct:
			if a.Column == "" {
				return fmt.Errorf("query %s: COUNT(DISTINCT) needs a categorical column", q.Name)
			}
		case Percentile:
			if a.Column == "" && a.Expr == nil {
				return fmt.Errorf("query %s: %s aggregate needs a column or expression", q.Name, a.Kind)
			}
			if !(a.P > 0 && a.P < 1) {
				return fmt.Errorf("query %s: PERCENTILE needs p in (0,1), got %v", q.Name, a.P)
			}
		default:
			if a.Column == "" && a.Expr == nil {
				return fmt.Errorf("query %s: %s aggregate needs a column or expression", q.Name, a.Kind)
			}
		}
	}
	for _, r := range q.Pred.Ranges {
		// One check for reversed bounds and NaN alike: a NaN bound
		// compares false with everything.
		if !(r.Lo <= r.Hi) {
			return fmt.Errorf("query %s: range on %s needs lo <= hi, got [%v, %v]", q.Name, r.Column, r.Lo, r.Hi)
		}
	}
	if q.Stop.AggIndex < 0 || q.Stop.AggIndex >= len(aggs) {
		return fmt.Errorf("query %s: stop rule watches aggregate #%d of a %d-aggregate SELECT list",
			q.Name, q.Stop.AggIndex+1, len(aggs))
	}
	switch q.Stop.Kind {
	case StopFixedSamples:
		if q.Stop.Samples <= 0 {
			return fmt.Errorf("query %s: fixed-samples stop needs Samples > 0", q.Name)
		}
	case StopAbsWidth, StopRelWidth:
		if q.Stop.Epsilon <= 0 {
			return fmt.Errorf("query %s: width stop needs Epsilon > 0", q.Name)
		}
	case StopTopK:
		if q.Stop.K <= 0 {
			return fmt.Errorf("query %s: top-k stop needs K > 0", q.Name)
		}
		if len(q.GroupBy) == 0 {
			return fmt.Errorf("query %s: top-k stop needs GROUP BY", q.Name)
		}
	case StopOrdered:
		if len(q.GroupBy) == 0 {
			return fmt.Errorf("query %s: ordered stop needs GROUP BY", q.Name)
		}
	}
	return nil
}
