package fastframe

import (
	"fmt"

	"fastframe/internal/query"
)

// QueryBuilder assembles one aggregate query fluently:
//
//	fastframe.Avg("DepDelay").
//		Where("Airline", "HP").
//		WhereGreater("DepTime", 1350).
//		GroupBy("DayOfWeek").
//		StopWhenOrdered()
//
// Builders are immutable: each method returns a copy, so partial
// queries can be shared and specialized.
type QueryBuilder struct {
	q query.Query
}

// selectOne starts a query whose SELECT list is the one aggregate a.
func selectOne(name string, a query.Aggregate) QueryBuilder {
	return QueryBuilder{q: query.Query{Name: name, Aggs: []query.Aggregate{a}, Stop: query.Exhaust()}}
}

// Avg starts an AVG(column) query.
func Avg(column string) QueryBuilder {
	return selectOne("AVG("+column+")", query.Aggregate{Kind: query.Avg, Column: column})
}

// Sum starts a SUM(column) query.
func Sum(column string) QueryBuilder {
	return selectOne("SUM("+column+")", query.Aggregate{Kind: query.Sum, Column: column})
}

// CountRows starts a COUNT(*) query.
func CountRows() QueryBuilder {
	return selectOne("COUNT(*)", query.Aggregate{Kind: query.Count})
}

// Median starts a MEDIAN(column) query: the 0.5-quantile with a
// DKW-band confidence interval.
func Median(column string) QueryBuilder {
	return selectOne("MEDIAN("+column+")", query.Aggregate{Kind: query.Median, Column: column})
}

// PercentileOf starts a PERCENTILE(column, p) query for p strictly
// between 0 and 1 (validated when the query runs).
func PercentileOf(column string, p float64) QueryBuilder {
	return selectOne(fmt.Sprintf("PERCENTILE(%s, %g)", column, p), query.Aggregate{Kind: query.Percentile, Column: column, P: p})
}

// Var starts a VAR(column) query (population variance).
func Var(column string) QueryBuilder {
	return selectOne("VAR("+column+")", query.Aggregate{Kind: query.Var, Column: column})
}

// Stddev starts a STDDEV(column) query (population standard
// deviation).
func Stddev(column string) QueryBuilder {
	return selectOne("STDDEV("+column+")", query.Aggregate{Kind: query.Stddev, Column: column})
}

// CountDistinct starts a COUNT(DISTINCT column) query over a
// categorical column.
func CountDistinct(column string) QueryBuilder {
	return selectOne("COUNT(DISTINCT "+column+")", query.Aggregate{Kind: query.CountDistinct, Column: column})
}

// Select combines several aggregate builders into one multi-aggregate
// query answered on a single scan: predicates, grouping, and the
// stopping rule come from the combined builder's own method chain.
// Each aggregate's interval holds with δ_view/N so the joint guarantee
// over the whole list matches a single-aggregate query's.
//
//	fastframe.Select(fastframe.Avg("x"), fastframe.Median("x")).
//		GroupBy("g").StopAtRelError(0.05)
func Select(first QueryBuilder, rest ...QueryBuilder) QueryBuilder {
	if len(rest) == 0 {
		return first
	}
	aggs := append([]query.Aggregate(nil), first.q.Aggs...)
	name := first.q.Name
	for _, qb := range rest {
		aggs = append(aggs, qb.q.Aggs...)
		name += ", " + qb.q.Name
	}
	return QueryBuilder{q: query.Query{
		Name: name,
		Aggs: aggs,
		Stop: query.Exhaust(),
	}}
}

// AvgExpr starts an AVG over an arbitrary expression of continuous
// columns; range bounds are derived from the catalog per Appendix B of
// the paper.
func AvgExpr(e Expr) QueryBuilder {
	return selectOne("AVG("+e.String()+")", query.Aggregate{Kind: query.Avg, Expr: e.e})
}

// SumExpr starts a SUM over an arbitrary expression of continuous
// columns.
func SumExpr(e Expr) QueryBuilder {
	return selectOne("SUM("+e.String()+")", query.Aggregate{Kind: query.Sum, Expr: e.e})
}

// Named sets the query's display name.
func (qb QueryBuilder) Named(name string) QueryBuilder {
	qb.q.Name = name
	return qb
}

// Where adds a categorical equality predicate (column = value), the
// one-value case of WhereIn.
func (qb QueryBuilder) Where(column, value string) QueryBuilder {
	qb.q.Pred = qb.q.Pred.AndCatIn(column, value)
	return qb
}

// WhereIn adds a categorical set-membership predicate
// (column IN values). Values absent from the column's dictionary are
// ignored; an entirely unknown set yields a provably empty view.
func (qb QueryBuilder) WhereIn(column string, values ...string) QueryBuilder {
	qb.q.Pred = qb.q.Pred.AndCatIn(column, values...)
	return qb
}

// WhereGreater adds a continuous predicate (column > lo).
func (qb QueryBuilder) WhereGreater(column string, lo float64) QueryBuilder {
	qb.q.Pred = qb.q.Pred.AndGreater(column, lo)
	return qb
}

// WhereRange adds a continuous predicate (lo ≤ column ≤ hi).
func (qb QueryBuilder) WhereRange(column string, lo, hi float64) QueryBuilder {
	qb.q.Pred = qb.q.Pred.AndRange(column, lo, hi)
	return qb
}

// GroupBy groups the aggregate by one or more categorical columns.
func (qb QueryBuilder) GroupBy(columns ...string) QueryBuilder {
	qb.q.GroupBy = append(append([]string(nil), qb.q.GroupBy...), columns...)
	return qb
}

// StopAfterSamples terminates once every group has m contributing
// samples (stopping condition ① of the paper).
func (qb QueryBuilder) StopAfterSamples(m int) QueryBuilder {
	qb.q.Stop = query.FixedSamples(m)
	return qb
}

// StopAtAbsError terminates once every group's CI is narrower than eps
// (condition ②).
func (qb QueryBuilder) StopAtAbsError(eps float64) QueryBuilder {
	qb.q.Stop = query.AbsWidth(eps)
	return qb
}

// StopAtRelError terminates once every group's relative CI width is
// below eps (condition ③).
func (qb QueryBuilder) StopAtRelError(eps float64) QueryBuilder {
	qb.q.Stop = query.RelWidth(eps)
	return qb
}

// StopWhenThresholdDecided terminates once every group's CI excludes v,
// i.e. each group is decided to lie above or below v w.h.p.
// (condition ④ — the HAVING accelerator).
func (qb QueryBuilder) StopWhenThresholdDecided(v float64) QueryBuilder {
	qb.q.Stop = query.Threshold(v)
	return qb
}

// StopWhenTopKSeparated terminates once the K groups with the largest
// aggregates are separated from the rest (condition ⑤; ORDER BY ... DESC
// LIMIT K).
func (qb QueryBuilder) StopWhenTopKSeparated(k int) QueryBuilder {
	qb.q.Stop = query.TopK(k)
	return qb
}

// StopWhenBottomKSeparated is StopWhenTopKSeparated for the K smallest
// aggregates (ORDER BY ... ASC LIMIT K).
func (qb QueryBuilder) StopWhenBottomKSeparated(k int) QueryBuilder {
	qb.q.Stop = query.BottomK(k)
	return qb
}

// StopWhenOrdered terminates once no two groups' CIs overlap, fixing the
// complete ordering of group aggregates w.h.p. (condition ⑥).
func (qb QueryBuilder) StopWhenOrdered() QueryBuilder {
	qb.q.Stop = query.Ordered()
	return qb
}

// ScanAll disables early stopping: the scan covers the whole scramble
// and returns exact answers (with interval width 0 up to float error).
func (qb QueryBuilder) ScanAll() QueryBuilder {
	qb.q.Stop = query.Exhaust()
	return qb
}

// String renders the query.
func (qb QueryBuilder) String() string { return qb.q.String() }

// build returns the underlying query.
func (qb QueryBuilder) build() query.Query { return qb.q }
