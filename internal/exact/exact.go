// Package exact is the reference interpreter that tests compare every
// other answer against: the round engine's exact path (exec.RunExact,
// what QueryExact and a SQL EXACT tail run) and the intervals of
// approximate runs. It is written to be obviously right, not fast: one
// pass over a resident table a row at a time, predicates compared on
// decoded strings, expressions walked with Expr.Eval, every matching
// value retained, then a plain sum, a two-pass variance and a sort for
// quantiles. It shares no code with exec, blockstore or stats, so a bug
// there cannot hide in here. Nothing outside tests imports it.
package exact

import (
	"errors"
	"math"
	"slices"
	"sort"
	"strings"

	"fastframe/internal/query"
	"fastframe/internal/table"
)

// GroupValue is the exact answer for one aggregate view.
type GroupValue struct {
	// Key is the GROUP BY key: the columns' values joined with "|", ""
	// for an ungrouped query.
	Key string
	// Count is the view's row count.
	Count int
	// Stats holds the exact value of every SELECT-list aggregate in list
	// order: COUNT is the row count, VAR and STDDEV are the population
	// moments, MEDIAN/PERCENTILE the smallest value whose rank reaches
	// the quantile, COUNT DISTINCT the number of distinct strings.
	Stats []float64
}

// Result is the exact evaluation of a query.
type Result struct {
	Groups []GroupValue // sorted by Key; only views with ≥ 1 row
}

// Group returns the exact value for a key, or nil.
func (r *Result) Group(key string) *GroupValue {
	for i := range r.Groups {
		if r.Groups[i].Key == key {
			return &r.Groups[i]
		}
	}
	return nil
}

// view is what one group retains: per aggregate, every input value in
// row order, or every distinct string seen.
type view struct {
	count    int
	values   [][]float64
	distinct []map[string]bool
}

// Run evaluates q over the resident table t, ignoring its stopping rule.
func Run(t *table.Table, q query.Query) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if t.OutOfCore() {
		return nil, errors.New("exact: the reference interpreter reads resident tables only")
	}
	// Resolve every column the query names, so that an unknown or
	// wrongly typed one is an error.
	floats := map[string][]float64{}
	cats := map[string]*table.CatColumn{}
	var errs []error
	needFloat := func(name string) {
		c, err := t.Float(name)
		if errs = append(errs, err); err == nil {
			floats[name] = c.Values
		}
	}
	needCat := func(name string) {
		c, err := t.Cat(name)
		if errs = append(errs, err); err == nil {
			cats[name] = c
		}
	}
	for _, a := range q.Aggs {
		switch {
		case a.Kind == query.Count:
		case a.Kind == query.CountDistinct:
			needCat(a.Column)
		case a.Expr != nil:
			vars := map[string]bool{}
			a.Expr.Vars(vars)
			for name := range vars {
				needFloat(name)
			}
		default:
			needFloat(a.Column)
		}
	}
	for _, p := range q.Pred.CatIn {
		needCat(p.Column)
	}
	for _, p := range q.Pred.Ranges {
		needFloat(p.Column)
	}
	for _, name := range q.GroupBy {
		needCat(name)
	}
	if err := errors.Join(errs...); err != nil { // nil when every one is
		return nil, err
	}

	views := map[string]*view{}
	row := map[string]float64{} // the current row's float values, by column
	i := 0                      // the current row
	str := func(name string) string { return cats[name].Value(cats[name].Codes[i]) }
	for ; i < t.NumRows(); i++ {
		for name, vs := range floats {
			row[name] = vs[i]
		}
		if !matches(q.Pred, row, str) {
			continue
		}
		parts := make([]string, len(q.GroupBy))
		for c, name := range q.GroupBy {
			parts[c] = str(name)
		}
		key := strings.Join(parts, "|")
		v := views[key]
		if v == nil {
			v = &view{values: make([][]float64, len(q.Aggs)), distinct: make([]map[string]bool, len(q.Aggs))}
			views[key] = v
		}
		v.count++
		for k, a := range q.Aggs {
			switch {
			case a.Kind == query.Count:
			case a.Kind == query.CountDistinct:
				if v.distinct[k] == nil {
					v.distinct[k] = map[string]bool{}
				}
				v.distinct[k][str(a.Column)] = true
			case a.Expr != nil:
				v.values[k] = append(v.values[k], a.Expr.Eval(row))
			default:
				v.values[k] = append(v.values[k], row[a.Column])
			}
		}
	}

	res := &Result{}
	for key, v := range views {
		g := GroupValue{Key: key, Count: v.count, Stats: make([]float64, len(q.Aggs))}
		for k, a := range q.Aggs {
			g.Stats[k] = finalize(a, v.count, v.values[k], len(v.distinct[k]))
		}
		res.Groups = append(res.Groups, g)
	}
	sort.Slice(res.Groups, func(i, j int) bool { return res.Groups[i].Key < res.Groups[j].Key })
	return res, nil
}

// matches evaluates the conjunction on one row's decoded values.
func matches(p query.Predicate, row map[string]float64, str func(string) string) bool {
	for _, a := range p.CatIn {
		if !slices.Contains(a.Values, str(a.Column)) {
			return false
		}
	}
	for _, a := range p.Ranges {
		if v := row[a.Column]; v < a.Lo || v > a.Hi {
			return false
		}
	}
	return true
}

// finalize computes one aggregate of one view from its count rows, its
// retained values (in row order) and its number of distinct strings.
func finalize(a query.Aggregate, count int, values []float64, distinct int) float64 {
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	mean := sum / float64(count)
	switch a.Kind {
	case query.Count:
		return float64(count)
	case query.CountDistinct:
		return float64(distinct)
	case query.Sum:
		return sum
	case query.Avg:
		return mean
	case query.Var, query.Stddev:
		ss := 0.0
		for _, v := range values {
			ss += (v - mean) * (v - mean)
		}
		if a.Kind == query.Stddev {
			return math.Sqrt(ss / float64(count))
		}
		return ss / float64(count)
	default: // Median, Percentile
		sorted := append([]float64(nil), values...)
		sort.Float64s(sorted)
		// The smallest value v with (values ≤ v)/count ≥ p; p < 1, so
		// there is one.
		return sorted[sort.Search(count, func(i int) bool {
			return float64(i+1)/float64(count) >= a.Quantile()
		})]
	}
}
