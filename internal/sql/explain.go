package sql

import (
	"fmt"
	"strings"
)

// Explain renders the statement's full logical plan without executing
// it: the aggregate, the table, every predicate, the grouping, the
// stopping rule the tail clause compiles to, and — for prepared
// statements — the parameter slots. Unbound '?' slots render as $1, $2,
// ... in text order.
func (t *Template) Explain() string { return explainStatement(t.st, t.params) }

// Explain renders the bound plan: the same full rendering as
// Template.Explain, with every parameter slot replaced by its bound
// value.
func (c Compiled) Explain() string {
	if c.st == nil { // zero Compiled (not produced by Plan)
		return c.Query.String() + " FROM " + c.Table
	}
	return explainStatement(c.st, c.st.Params)
}

func explainStatement(st *Statement, params []Param) string {
	var b strings.Builder
	sel := make([]string, len(st.Aggs))
	for i, a := range st.Aggs {
		sel[i] = renderAgg(a)
	}
	fmt.Fprintf(&b, "SELECT %s\n", strings.Join(sel, ", "))
	fmt.Fprintf(&b, "  FROM %s\n", st.Table)
	for _, j := range st.Joins {
		fmt.Fprintf(&b, "  JOIN %s ON %s.%s = %s.%s\n", j.Dim, j.Parent, j.ParentColumn, j.Dim, j.KeyColumn)
	}
	if len(st.Where) > 0 {
		parts := make([]string, len(st.Where))
		for i, pr := range st.Where {
			parts[i] = renderPred(pr)
		}
		fmt.Fprintf(&b, "  WHERE %s\n", strings.Join(parts, " AND "))
	}
	if len(st.GroupBy) > 0 {
		fmt.Fprintf(&b, "  GROUP BY %s\n", strings.Join(st.GroupBy, ", "))
	}
	// One STOP-rule line per aggregate: width rules apply to every
	// SELECT-list member (the scan runs until all are tight enough);
	// value-comparing rules watch one member and the rest ride along on
	// the same pass. A one-aggregate list needs no [agg] label.
	if len(st.Aggs) == 1 {
		fmt.Fprintf(&b, "  STOP %s\n", renderStop(st))
	} else {
		watched := stopWatches(st)
		for i, a := range st.Aggs {
			if watched < 0 || i == watched {
				fmt.Fprintf(&b, "  STOP [%s] %s\n", renderAgg(a), renderStop(st))
			} else {
				fmt.Fprintf(&b, "  STOP [%s] rides along — observed on the same pass; scan stops with %s\n",
					renderAgg(a), renderAgg(st.Aggs[watched]))
			}
		}
	}
	if len(params) > 0 {
		fmt.Fprintf(&b, "  PARAMS %d slot(s):\n", len(params))
		for _, p := range params {
			fmt.Fprintf(&b, "    $%d %s — %s (at offset %d)\n", p.Index+1, p.Kind, p.Context, p.Pos)
		}
	}
	return strings.TrimSuffix(b.String(), "\n")
}

// stopWatches returns the SELECT-list index the stopping rule watches,
// or -1 when the rule applies to every aggregate (width and exhaust
// rules).
func stopWatches(st *Statement) int {
	var watched AggExpr
	switch {
	case st.Having != nil:
		watched = st.Having.Agg
	case st.OrderBy != nil:
		watched = st.OrderBy.Agg
	default:
		return -1
	}
	w := renderAgg(watched)
	for i, a := range st.Aggs {
		if renderAgg(a) == w {
			return i
		}
	}
	return 0
}

// renderAgg renders the aggregate clause from the parse tree.
func renderAgg(a AggExpr) string {
	if a.Star {
		return "COUNT(*)"
	}
	if a.Distinct {
		return fmt.Sprintf("COUNT(DISTINCT %s)", renderNode(a.Expr))
	}
	if a.Func == "PERCENTILE" {
		return fmt.Sprintf("PERCENTILE(%s, %s)", renderNode(a.Expr), numOrParam(a.P, a.PParam))
	}
	return fmt.Sprintf("%s(%s)", a.Func, renderNode(a.Expr))
}

// renderNode renders an arithmetic parse node.
func renderNode(n Node) string {
	switch n := n.(type) {
	case ColRef:
		if n.Table != "" {
			return n.Table + "." + n.Name
		}
		return n.Name
	case NumLit:
		return fmt.Sprintf("%g", n.Value)
	case BinOp:
		return fmt.Sprintf("(%s %c %s)", renderNode(n.L), n.Op, renderNode(n.R))
	case UnaryOp:
		if n.Op == '|' {
			return "ABS(" + renderNode(n.X) + ")"
		}
		return "-" + renderNode(n.X)
	default:
		return "?expr?"
	}
}

// renderPred renders one WHERE conjunct; '?' values render as $n and
// qualified (dimension-attribute) columns as table.column.
func renderPred(pr Pred) string {
	col := pr.Column
	if pr.Table != "" {
		col = pr.Table + "." + pr.Column
	}
	switch pr.Op {
	case PredEq, PredNe, PredIn:
		parts := make([]string, 0, len(pr.Set)+len(pr.SetParams))
		for _, s := range pr.Set {
			parts = append(parts, fmt.Sprintf("%q", s))
		}
		for _, n := range pr.SetParams {
			parts = append(parts, fmt.Sprintf("$%d", n))
		}
		switch pr.Op {
		case PredEq:
			return fmt.Sprintf("%s = %s", col, parts[0])
		case PredNe:
			return fmt.Sprintf("%s != %s", col, parts[0])
		}
		return fmt.Sprintf("%s IN (%s)", col, strings.Join(parts, ", "))
	case PredGt:
		return fmt.Sprintf("%s > %s", col, numOrParam(pr.Lo, pr.LoParam))
	case PredGe:
		return fmt.Sprintf("%s >= %s", col, numOrParam(pr.Lo, pr.LoParam))
	case PredLt:
		return fmt.Sprintf("%s < %s", col, numOrParam(pr.Hi, pr.HiParam))
	case PredLe:
		return fmt.Sprintf("%s <= %s", col, numOrParam(pr.Hi, pr.HiParam))
	case PredBetween:
		return fmt.Sprintf("%s BETWEEN %s AND %s", col,
			numOrParam(pr.Lo, pr.LoParam), numOrParam(pr.Hi, pr.HiParam))
	default:
		return col + " ?pred?"
	}
}

func numOrParam(v float64, param int) string {
	if param > 0 {
		return fmt.Sprintf("$%d", param)
	}
	return fmt.Sprintf("%g", v)
}

// renderStop describes the stopping rule the tail clause compiles to,
// tagged with the query-model stop-kind name.
func renderStop(st *Statement) string {
	switch {
	case st.Having != nil:
		h := st.Having
		op := "<"
		if h.Greater {
			op = ">"
		}
		return fmt.Sprintf("threshold — scan until every group's CI excludes %s (HAVING %s %s %s; result partitions w.h.p.)",
			numOrParam(h.Value, h.ValueParam), renderAgg(h.Agg), op, numOrParam(h.Value, h.ValueParam))
	case st.OrderBy != nil:
		ob := st.OrderBy
		if ob.Limit == 0 && ob.LimitParam == 0 {
			return "ordered — scan until no two group CIs overlap (ORDER BY fixes the full order w.h.p.)"
		}
		which := "bottom"
		if ob.Desc {
			which = "top"
		}
		limit := numOrParam(float64(ob.Limit), ob.LimitParam)
		return fmt.Sprintf("top-k — scan until the %s-%s groups by %s separate from the rest",
			which, limit, renderAgg(ob.Agg))
	case st.Within != nil:
		w := st.Within
		if w.Relative {
			if w.ValueParam > 0 {
				return fmt.Sprintf("rel-width — scan until every group's relative CI width is below $%d%%", w.ValueParam)
			}
			return fmt.Sprintf("rel-width — scan until every group's relative CI width is below %g%%", w.Value*100)
		}
		return fmt.Sprintf("abs-width — scan until every group's CI width is below %s", numOrParam(w.Value, w.ValueParam))
	case st.Exact:
		return "exhaust — full scan, exact answer (EXACT)"
	default:
		return "exhaust — full scan, exact answer (no tail clause)"
	}
}
