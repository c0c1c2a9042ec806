package sql

import (
	"fmt"
	"math"
)

// ParamKind classifies what a '?' placeholder accepts at Bind time.
type ParamKind int

const (
	// ParamString is a categorical value slot: WHERE col = ? or a '?'
	// member of an IN list. Binds a string.
	ParamString ParamKind = iota
	// ParamFloat is a numeric value slot: comparison and BETWEEN
	// bounds, the HAVING threshold, and the WITHIN target. Binds any
	// integer or floating-point type.
	ParamFloat
	// ParamInt is a positive integer slot: LIMIT ? and PARALLEL ?.
	// Binds any integer type.
	ParamInt
	// ParamPercentile is a PERCENTILE(expr, ?) target slot. Binds any
	// numeric type; the value must lie strictly between 0 and 1 (NaN
	// and ±Inf are rejected like every numeric slot — the same guard
	// class as NaN HAVING thresholds).
	ParamPercentile
)

// String names the kind as it appears in binding errors.
func (k ParamKind) String() string {
	switch k {
	case ParamString:
		return "string"
	case ParamFloat:
		return "number"
	case ParamInt:
		return "integer"
	case ParamPercentile:
		return "percentile"
	default:
		return fmt.Sprintf("ParamKind(%d)", int(k))
	}
}

// Param describes one '?' placeholder of a prepared statement.
type Param struct {
	Index   int       // 0-based position in text order
	Pos     int       // byte offset of the '?' in the query text
	Kind    ParamKind // what Bind accepts for this slot
	Context string    // human-readable slot description, e.g. "WHERE Origin = ?"
}

// Template is a prepared statement: the statement text is lexed and
// parsed exactly once, and the result is bound to concrete parameter
// values any number of times with Bind. A Template is immutable and
// safe for concurrent use from multiple goroutines.
type Template struct {
	src    string
	st     *Statement
	params []Param
	zero   *Compiled // pre-planned form of a parameterless statement
}

// Prepare parses the statement once. Statements without parameters are
// also planned eagerly, so Bind() returns the cached plan.
func Prepare(src string) (*Template, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	t := &Template{src: src, st: st, params: st.Params}
	if len(t.params) == 0 {
		c, err := Plan(st, src)
		if err != nil {
			return nil, err
		}
		t.zero = &c
	}
	return t, nil
}

// Source returns the original statement text.
func (t *Template) Source() string { return t.src }

// Table returns the FROM-clause table name (known before binding).
func (t *Template) Table() string { return t.st.Table }

// NumParams returns the number of '?' placeholders.
func (t *Template) NumParams() int { return len(t.params) }

// Params returns the placeholder descriptors in text order.
func (t *Template) Params() []Param { return append([]Param(nil), t.params...) }

// Bind substitutes one argument per '?' placeholder (in text order)
// and plans the resulting statement. Binding is typed per slot —
// string slots take strings, numeric slots take any Go numeric type,
// integer slots take integers — and a mismatch fails with the byte
// offset of the offending '?'. Bind never mutates the template, so
// concurrent Binds with different arguments are safe.
func (t *Template) Bind(args ...any) (Compiled, error) {
	if t.zero != nil {
		if len(args) != 0 {
			return Compiled{}, errf(-1, "statement has no parameters, got %d argument(s)", len(args))
		}
		return *t.zero, nil
	}
	if len(args) != len(t.params) {
		pos := -1
		if len(args) < len(t.params) {
			pos = t.params[len(args)].Pos
		}
		return Compiled{}, errf(pos, "statement has %d parameter(s), got %d argument(s)", len(t.params), len(args))
	}
	st := t.st.bindClone()
	for i, slot := range t.params {
		if err := st.setParam(slot, args[i]); err != nil {
			return Compiled{}, err
		}
	}
	st.clearParamRefs()
	return Plan(st, t.src)
}

// clearParamRefs zeroes the parameter references once every slot has
// been bound, so the statement (and its Explain rendering) presents
// the bound values as ordinary literals.
func (st *Statement) clearParamRefs() {
	for i := range st.Aggs {
		st.Aggs[i].PParam = 0
	}
	if st.Having != nil {
		st.Having.Agg.PParam = 0
	}
	if st.OrderBy != nil {
		st.OrderBy.Agg.PParam = 0
	}
	for i := range st.Where {
		pr := &st.Where[i]
		pr.LoParam, pr.HiParam = 0, 0
		pr.SetParams = nil
	}
	if st.Having != nil {
		st.Having.ValueParam = 0
	}
	if st.OrderBy != nil {
		st.OrderBy.LimitParam = 0
	}
	if st.Within != nil {
		st.Within.ValueParam = 0
	}
	st.ParallelParam = 0
	st.Params = nil
}

// bindClone copies the statement deep enough that setParam writes
// never alias the template's parse tree.
func (st *Statement) bindClone() *Statement {
	c := *st
	c.bound = true
	c.Aggs = append([]AggExpr(nil), st.Aggs...)
	c.Where = append([]Pred(nil), st.Where...)
	for i := range c.Where {
		if len(c.Where[i].SetParams) > 0 {
			c.Where[i].Set = append([]string(nil), c.Where[i].Set...)
		}
	}
	if st.Having != nil {
		h := *st.Having
		c.Having = &h
	}
	if st.OrderBy != nil {
		o := *st.OrderBy
		c.OrderBy = &o
	}
	if st.Within != nil {
		w := *st.Within
		c.Within = &w
	}
	return &c
}

// setParam writes one bound value into the clause that declared the
// slot. The statement must be a bindClone.
func (st *Statement) setParam(slot Param, arg any) error {
	n := slot.Index + 1
	switch slot.Kind {
	case ParamString:
		s, err := bindString(slot, arg)
		if err != nil {
			return err
		}
		for i := range st.Where {
			pr := &st.Where[i]
			for _, sp := range pr.SetParams {
				if sp == n {
					pr.Set = append(pr.Set, s)
					return nil
				}
			}
		}
	case ParamFloat:
		f, err := bindFloat(slot, arg)
		if err != nil {
			return err
		}
		for i := range st.Where {
			pr := &st.Where[i]
			if pr.LoParam == n {
				pr.Lo = f
				return nil
			}
			if pr.HiParam == n {
				pr.Hi = f
				return nil
			}
		}
		if st.Having != nil && st.Having.ValueParam == n {
			st.Having.Value = f
			return nil
		}
		if st.Within != nil && st.Within.ValueParam == n {
			if f <= 0 { // finiteness is already enforced by bindFloat
				return errf(slot.Pos, "parameter %d (%s): want a positive width, got %g", n, slot.Context, f)
			}
			if st.Within.Relative {
				f /= 100 // WITHIN ?% binds the percentage, as written
			}
			st.Within.Value = f
			return nil
		}
	case ParamPercentile:
		f, err := bindFloat(slot, arg)
		if err != nil {
			return err
		}
		// Strict (0,1): a boundary target has a degenerate DKW band,
		// and NaN (rejected by bindFloat already) would never stop.
		if !(f > 0 && f < 1) {
			return errf(slot.Pos, "parameter %d (%s): want a percentile strictly between 0 and 1, got %g", n, slot.Context, f)
		}
		for i := range st.Aggs {
			if st.Aggs[i].PParam == n {
				st.Aggs[i].P = f
				return nil
			}
		}
		if st.Having != nil && st.Having.Agg.PParam == n {
			st.Having.Agg.P = f
			return nil
		}
		if st.OrderBy != nil && st.OrderBy.Agg.PParam == n {
			st.OrderBy.Agg.P = f
			return nil
		}
	case ParamInt:
		k, err := bindInt(slot, arg)
		if err != nil {
			return err
		}
		if k <= 0 {
			return errf(slot.Pos, "parameter %d (%s): want a positive integer, got %d", n, slot.Context, k)
		}
		if st.OrderBy != nil && st.OrderBy.LimitParam == n {
			st.OrderBy.Limit = k
			return nil
		}
		if st.ParallelParam == n {
			return nil // checked, then dropped: PARALLEL is a retired hint
		}
	}
	return errf(slot.Pos, "internal: parameter %d (%s) has no clause to bind into", n, slot.Context)
}

func bindString(slot Param, arg any) (string, error) {
	switch v := arg.(type) {
	case string:
		return v, nil
	case []byte:
		return string(v), nil
	default:
		return "", bindTypeError(slot, "a quoted string value", arg)
	}
}

func bindFloat(slot Param, arg any) (float64, error) {
	switch v := arg.(type) {
	case float64:
		return finite(slot, v)
	case float32:
		return finite(slot, float64(v))
	case int:
		return float64(v), nil
	case int8:
		return float64(v), nil
	case int16:
		return float64(v), nil
	case int32:
		return float64(v), nil
	case int64:
		return float64(v), nil
	case uint:
		return float64(v), nil
	case uint8:
		return float64(v), nil
	case uint16:
		return float64(v), nil
	case uint32:
		return float64(v), nil
	case uint64:
		return float64(v), nil
	default:
		return 0, bindTypeError(slot, "a number", arg)
	}
}

// finite rejects NaN and ±Inf — values no numeric literal can spell,
// which would otherwise degrade silently (a NaN HAVING threshold, say,
// can never be excluded by any CI, so the scan runs to exhaustion).
func finite(slot Param, v float64) (float64, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, errf(slot.Pos, "parameter %d (%s): want a finite number, got %g", slot.Index+1, slot.Context, v)
	}
	return v, nil
}

// bindInt applies the literal's rule to every integer type: a value
// that fits an int binds, and a larger one overflows the slot.
func bindInt(slot Param, arg any) (int, error) {
	switch v := arg.(type) {
	case int:
		return v, nil
	case int8:
		return int(v), nil
	case int16:
		return int(v), nil
	case int32:
		return int(v), nil
	case int64:
		if v >= math.MinInt && v <= math.MaxInt {
			return int(v), nil
		}
	case uint:
		if uint64(v) <= math.MaxInt {
			return int(v), nil
		}
	case uint8:
		return int(v), nil
	case uint16:
		return int(v), nil
	case uint32:
		if uint64(v) <= math.MaxInt {
			return int(v), nil
		}
	case uint64:
		if v <= math.MaxInt {
			return int(v), nil
		}
	default:
		return 0, bindTypeError(slot, "an integer", arg)
	}
	return 0, errf(slot.Pos, "parameter %d (%s): %d overflows the slot", slot.Index+1, slot.Context, arg)
}

func bindTypeError(slot Param, want string, got any) *Error {
	return errf(slot.Pos, "parameter %d (%s): want %s, got %T", slot.Index+1, slot.Context, want, got)
}
