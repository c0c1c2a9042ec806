package sql

import (
	"math"
	"strings"

	"fastframe/internal/expr"
	"fastframe/internal/query"
)

// Compiled is the result of planning one SQL statement: the target
// table name, the logical query the executor runs, and any execution
// hints carried alongside (hints never change answers).
//
// JOIN clauses and dimension-attribute predicates are NOT lowered into
// Query here: dimension tables live in the engine's registry and are
// resolved at bind/run time — the same late resolution the FROM table
// gets — so a re-registered dimension (or fact table) is picked up by
// the next run even when the plan came from the cache. The engine
// compiles Joins + DimPreds into fact-side IN atoms and appends them
// to Query.Pred before execution.
type Compiled struct {
	Table string
	// Joins are the statement's JOIN clauses in text order (parents
	// always precede their snowflake children).
	Joins []Join
	// DimPreds are the dimension-attribute predicates with their bound
	// values, awaiting key-set resolution against the registry.
	DimPreds []DimPred
	Query    query.Query

	// st is the (bound) parse tree the plan was lowered from, kept for
	// Explain rendering.
	st *Statement
}

// DimPred is one dimension-attribute predicate of a planned statement:
// "Dim.Attr Op Values" with parameters already bound. Op is PredEq,
// PredNe, or PredIn: a row matches when its value is in Values, or, for
// PredNe, when it is not.
type DimPred struct {
	Dim    string
	Attr   string
	Op     PredOp
	Values []string // one value for PredEq/PredNe
	Pos    int
}

// Compile parses and plans a SQL statement in one step. Statements
// with '?' parameter placeholders cannot be compiled directly — use
// Prepare and bind arguments with Template.Bind.
func Compile(src string) (Compiled, error) {
	t, err := Prepare(src)
	if err != nil {
		return Compiled{}, err
	}
	if n := t.NumParams(); n > 0 {
		return Compiled{}, errf(t.params[0].Pos, "statement has %d parameter placeholder(s) '?'; prepare it and bind arguments", n)
	}
	return t.Bind()
}

// colResolver maps a possibly-qualified column reference onto a fact
// column name, rejecting dimension attributes and unknown qualifiers.
type colResolver func(c ColRef) (string, error)

// resolver builds the column resolver for a statement: bare names and
// FROM-table qualifiers pass through; JOINed tables are filter-only.
func resolver(st *Statement) colResolver {
	return func(c ColRef) (string, error) {
		switch {
		case c.Table == "" || c.Table == st.Table:
			return c.Name, nil
		case st.joinable(c.Table):
			return "", errf(c.Pos, "cannot aggregate or group over dimension attribute %s.%s: dimension predicates filter the fact scan, dimensions are never scanned themselves", c.Table, c.Name)
		default:
			return "", errf(c.Pos, "unknown table qualifier %q (FROM table is %q)", c.Table, st.Table)
		}
	}
}

// Plan lowers a parsed statement onto the logical query model. src is
// the original query text, recorded as the query's display name.
// Dimension-attribute predicates and JOIN clauses are validated and
// carried on the Compiled for bind-time resolution, not lowered.
func Plan(st *Statement, src string) (Compiled, error) {
	if len(st.Params) > 0 && !st.bound {
		return Compiled{}, errf(st.Params[0].Pos, "statement has unbound parameters; bind arguments via Template.Bind")
	}
	q := query.Query{Name: strings.TrimSpace(src)}
	resolve := resolver(st)

	aggs := make([]query.Aggregate, 0, len(st.Aggs))
	for _, a := range st.Aggs {
		agg, err := planAgg(a, resolve)
		if err != nil {
			return Compiled{}, err
		}
		aggs = append(aggs, agg)
	}
	q.Aggs = aggs

	var dimPreds []DimPred
	for _, pr := range st.Where {
		if pr.Table != "" && pr.Table != st.Table {
			dp, err := planDimPred(st, pr)
			if err != nil {
				return Compiled{}, err
			}
			dimPreds = append(dimPreds, dp)
			continue
		}
		switch pr.Op {
		case PredEq, PredIn:
			q.Pred = q.Pred.AndCatIn(pr.Column, pr.Set...)
		case PredNe:
			return Compiled{}, errf(pr.Pos, "%s != …: != is supported on dimension attributes only (a fact-side complement would need the column dictionary, unavailable before bind time); use IN over the wanted values", pr.Column)
		case PredGt:
			q.Pred = q.Pred.AndGreater(pr.Column, pr.Lo)
		case PredGe:
			q.Pred = q.Pred.AndRange(pr.Column, pr.Lo, math.Inf(1))
		case PredLt:
			q.Pred = q.Pred.AndRange(pr.Column, math.Inf(-1), math.Nextafter(pr.Hi, math.Inf(-1)))
		case PredLe:
			q.Pred = q.Pred.AndRange(pr.Column, math.Inf(-1), pr.Hi)
		case PredBetween:
			if pr.Lo > pr.Hi {
				return Compiled{}, errf(pr.Pos, "%s BETWEEN %g AND %g is empty (bounds reversed)", pr.Column, pr.Lo, pr.Hi)
			}
			q.Pred = q.Pred.AndRange(pr.Column, pr.Lo, pr.Hi)
		}
	}

	groupBy := make([]string, 0, len(st.GroupBy))
	for _, g := range st.GroupBy {
		if tbl, col, ok := strings.Cut(g, "."); ok {
			switch {
			case tbl == st.Table:
				g = col
			case st.joinable(tbl):
				return Compiled{}, errf(-1, "GROUP BY over dimension attribute %s is not supported; group by the fact foreign-key column instead", g)
			default:
				return Compiled{}, errf(-1, "GROUP BY %s: unknown table qualifier %q (FROM table is %q)", g, tbl, st.Table)
			}
		}
		groupBy = append(groupBy, g)
	}
	if len(groupBy) > 0 {
		q.GroupBy = groupBy
	}

	stop, err := planStop(st, aggs, resolve)
	if err != nil {
		return Compiled{}, err
	}
	q.Stop = stop

	if err := q.Validate(); err != nil {
		return Compiled{}, &Error{Pos: -1, Msg: err.Error()}
	}
	return Compiled{Table: st.Table, Joins: st.Joins, DimPreds: dimPreds, Query: q, st: st}, nil
}

// planDimPred validates one qualified predicate as a dimension-
// attribute predicate over a JOINed table.
func planDimPred(st *Statement, pr Pred) (DimPred, error) {
	if !st.joinable(pr.Table) {
		return DimPred{}, errf(pr.Pos, "predicate column %s.%s: unknown table qualifier %q (FROM table is %q; JOIN a dimension before filtering on it)", pr.Table, pr.Column, pr.Table, st.Table)
	}
	switch pr.Op {
	case PredEq, PredNe, PredIn:
		return DimPred{Dim: pr.Table, Attr: pr.Column, Op: pr.Op, Values: append([]string(nil), pr.Set...), Pos: pr.Pos}, nil
	}
	return DimPred{}, errf(pr.Pos, "dimension attribute %s.%s is categorical: only =, != and IN are supported", pr.Table, pr.Column)
}

// planAgg lowers an aggregate call. A bare column argument compiles to
// the simple-column form (catalog bounds used directly); anything else
// compiles to an expression aggregate with bounds derived per
// Appendix B. COUNT(DISTINCT col) requires a bare categorical column —
// its input is the column dictionary, not a derived float.
func planAgg(a AggExpr, resolve colResolver) (query.Aggregate, error) {
	if a.Star {
		return query.Aggregate{Kind: query.Count}, nil
	}
	if a.Distinct {
		col, ok := a.Expr.(ColRef)
		if !ok {
			return query.Aggregate{}, errf(a.Pos, "COUNT(DISTINCT …) wants a bare categorical column")
		}
		name, err := resolve(col)
		if err != nil {
			return query.Aggregate{}, err
		}
		return query.Aggregate{Kind: query.CountDistinct, Column: name}, nil
	}
	var kind query.AggKind
	var p float64
	switch a.Func {
	case "SUM":
		kind = query.Sum
	case "MEDIAN":
		kind = query.Median
	case "PERCENTILE":
		kind, p = query.Percentile, a.P
	case "VAR":
		kind = query.Var
	case "STDDEV":
		kind = query.Stddev
	default:
		kind = query.Avg
	}
	if col, ok := a.Expr.(ColRef); ok {
		name, err := resolve(col)
		if err != nil {
			return query.Aggregate{}, err
		}
		return query.Aggregate{Kind: kind, Column: name, P: p}, nil
	}
	e, err := planExpr(a.Expr, resolve)
	if err != nil {
		return query.Aggregate{}, err
	}
	return query.Aggregate{Kind: kind, Expr: e, P: p}, nil
}

// planExpr lowers an arithmetic parse node onto package expr.
func planExpr(n Node, resolve colResolver) (expr.Expr, error) {
	switch n := n.(type) {
	case ColRef:
		name, err := resolve(n)
		if err != nil {
			return nil, err
		}
		return expr.Col{Name: name}, nil
	case NumLit:
		return expr.Const{Value: n.Value}, nil
	case BinOp:
		l, err := planExpr(n.L, resolve)
		if err != nil {
			return nil, err
		}
		r, err := planExpr(n.R, resolve)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case '+':
			return expr.Add{X: l, Y: r}, nil
		case '-':
			return expr.Sub{X: l, Y: r}, nil
		default:
			return expr.Mul{X: l, Y: r}, nil
		}
	case UnaryOp:
		x, err := planExpr(n.X, resolve)
		if err != nil {
			return nil, err
		}
		if n.Op == '|' {
			return expr.Abs{X: x}, nil
		}
		return expr.Neg{X: x}, nil
	default:
		return nil, &Error{Pos: -1, Msg: "internal: unknown expression node"}
	}
}

// planStop maps the tail clauses onto a stopping condition. At most
// one of HAVING, ORDER BY, WITHIN, and EXACT may appear: each fixes
// the query's termination rule.
func planStop(st *Statement, aggs []query.Aggregate, resolve colResolver) (query.Stop, error) {
	n := 0
	for _, set := range []bool{st.Having != nil, st.OrderBy != nil, st.Within != nil, st.Exact} {
		if set {
			n++
		}
	}
	if n > 1 {
		return query.Stop{}, &Error{Pos: -1, Msg: "at most one of HAVING, ORDER BY, WITHIN, and EXACT may be used: each selects the query's stopping condition"}
	}

	switch {
	case st.Having != nil:
		h := st.Having
		if len(st.GroupBy) == 0 {
			return query.Stop{}, errf(h.Pos, "HAVING needs GROUP BY")
		}
		idx, err := findAggIndex(h.Agg, aggs, "HAVING", resolve)
		if err != nil {
			return query.Stop{}, err
		}
		stop := query.Threshold(h.Value)
		stop.AggIndex = idx
		return stop, nil
	case st.OrderBy != nil:
		ob := st.OrderBy
		if len(st.GroupBy) == 0 {
			return query.Stop{}, errf(ob.Pos, "ORDER BY needs GROUP BY")
		}
		idx, err := findAggIndex(ob.Agg, aggs, "ORDER BY", resolve)
		if err != nil {
			return query.Stop{}, err
		}
		var stop query.Stop
		switch {
		case ob.Limit == 0:
			// Full ordering: stop once no two group CIs overlap (⑥).
			stop = query.Ordered()
		case ob.Desc:
			stop = query.TopK(ob.Limit)
		default:
			stop = query.BottomK(ob.Limit)
		}
		stop.AggIndex = idx
		return stop, nil
	case st.Within != nil:
		if st.Within.Relative {
			return query.RelWidth(st.Within.Value), nil
		}
		return query.AbsWidth(st.Within.Value), nil
	default:
		// EXACT and the bare form both scan the whole scramble; the
		// answers are exact either way.
		return query.Exhaust(), nil
	}
}

// findAggIndex locates a HAVING / ORDER BY aggregate in the SELECT
// list — the engine maintains one state per selected aggregate per
// group, so the stopping condition must watch a selected aggregate —
// and returns its list index for Stop.AggIndex.
func findAggIndex(got AggExpr, aggs []query.Aggregate, clause string, resolve colResolver) (int, error) {
	planned, err := planAgg(got, resolve)
	if err != nil {
		return 0, err
	}
	for i, want := range aggs {
		if planned.Kind == want.Kind && planned.String() == want.String() {
			return i, nil
		}
	}
	if len(aggs) == 1 {
		return 0, errf(got.Pos, "%s must use the selected aggregate %s, found %s", clause, aggs[0], planned)
	}
	list := make([]string, len(aggs))
	for i, a := range aggs {
		list[i] = a.String()
	}
	return 0, errf(got.Pos, "%s must use one of the selected aggregates (%s), found %s", clause, strings.Join(list, ", "), planned)
}
