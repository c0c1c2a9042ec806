package sql

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"fastframe/internal/query"
)

// TestPrepareBindEquivalence checks that a parameterized statement,
// bound, plans onto exactly the same logical query as the equivalent
// literal SQL.
func TestPrepareBindEquivalence(t *testing.T) {
	cases := []struct {
		param   string
		args    []any
		literal string
	}{
		{
			param:   "SELECT AVG(DepDelay) FROM flights WHERE Origin = ? WITHIN ?%",
			args:    []any{"ORD", 5.0},
			literal: "SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD' WITHIN 5%",
		},
		{
			param:   "SELECT AVG(x) FROM f WHERE c IN (?, 'B', ?) AND t > ?",
			args:    []any{"A", "C", 1350},
			literal: "SELECT AVG(x) FROM f WHERE c IN ('B', 'A', 'C') AND t > 1350",
		},
		{
			param:   "SELECT COUNT(*) FROM f WHERE d BETWEEN ? AND ? WITHIN ABS ?",
			args:    []any{-5.0, 60.0, 0.5},
			literal: "SELECT COUNT(*) FROM f WHERE d BETWEEN -5 AND 60 WITHIN ABS 0.5",
		},
		{
			param:   "SELECT AVG(x) FROM f GROUP BY g HAVING AVG(x) > ?",
			args:    []any{8.25},
			literal: "SELECT AVG(x) FROM f GROUP BY g HAVING AVG(x) > 8.25",
		},
		{
			param:   "SELECT SUM(x) FROM f GROUP BY g ORDER BY SUM(x) DESC LIMIT ? PARALLEL ?",
			args:    []any{int64(3), 4},
			literal: "SELECT SUM(x) FROM f GROUP BY g ORDER BY SUM(x) DESC LIMIT 3 PARALLEL 4",
		},
		{
			param:   "SELECT AVG(x) FROM f WHERE t <= ?",
			args:    []any{900},
			literal: "SELECT AVG(x) FROM f WHERE t <= 900",
		},
	}
	for _, c := range cases {
		tmpl, err := Prepare(c.param)
		if err != nil {
			t.Errorf("Prepare(%q): %v", c.param, err)
			continue
		}
		bound, err := tmpl.Bind(c.args...)
		if err != nil {
			t.Errorf("Bind(%q, %v): %v", c.param, c.args, err)
			continue
		}
		lit, err := Compile(c.literal)
		if err != nil {
			t.Fatalf("Compile(%q): %v", c.literal, err)
		}
		// The display name embeds the source text (which differs by
		// construction); everything else must match exactly.
		bq, lq := bound.Query, lit.Query
		bq.Name, lq.Name = "", ""
		if bq.String() != lq.String() {
			t.Errorf("bound %q != literal %q:\n  %s\n  %s", c.param, c.literal, bq.String(), lq.String())
		}
		if bq.Stop != lq.Stop {
			t.Errorf("%q: stop %+v != %+v", c.param, bq.Stop, lq.Stop)
		}
		// Predicate internals (the rendered string hides exact bounds).
		if len(bq.Pred.Ranges) != len(lq.Pred.Ranges) {
			t.Fatalf("%q: range count mismatch", c.param)
		}
		for i := range bq.Pred.Ranges {
			if bq.Pred.Ranges[i] != lq.Pred.Ranges[i] {
				t.Errorf("%q: range %d: %+v != %+v", c.param, i, bq.Pred.Ranges[i], lq.Pred.Ranges[i])
			}
		}
	}
}

// TestBindIntMatchesLiteral: an integer slot binds every Go integer type
// by the literal's rule. Each of the ten types binds 5, and the largest
// value it holds up to 1<<40, exactly as LIMIT written with that number
// does; a value the literal cannot spell either, uint64(1<<63) or the
// largest uint, overflows the slot and is named as given.
func TestBindIntMatchesLiteral(t *testing.T) {
	const limitSQL = "SELECT SUM(x) FROM f GROUP BY g ORDER BY SUM(x) DESC LIMIT "
	tmpl, err := Prepare(limitSQL + "?")
	if err != nil {
		t.Fatal(err)
	}
	types := []struct {
		name string
		max  uint64
		of   func(uint64) any
	}{
		{"int", math.MaxInt, func(n uint64) any { return int(n) }},
		{"int8", math.MaxInt8, func(n uint64) any { return int8(n) }},
		{"int16", math.MaxInt16, func(n uint64) any { return int16(n) }},
		{"int32", math.MaxInt32, func(n uint64) any { return int32(n) }},
		{"int64", math.MaxInt64, func(n uint64) any { return int64(n) }},
		{"uint", math.MaxUint, func(n uint64) any { return uint(n) }},
		{"uint8", math.MaxUint8, func(n uint64) any { return uint8(n) }},
		{"uint16", math.MaxUint16, func(n uint64) any { return uint16(n) }},
		{"uint32", math.MaxUint32, func(n uint64) any { return uint32(n) }},
		{"uint64", math.MaxUint64, func(n uint64) any { return uint64(n) }},
	}
	type bindCase struct {
		name string
		n    uint64
		arg  any
	}
	var cases []bindCase
	for _, ty := range types {
		for _, n := range []uint64{5, min(1<<40, ty.max)} {
			cases = append(cases, bindCase{fmt.Sprintf("%s(%d)", ty.name, n), n, ty.of(n)})
		}
	}
	cases = append(cases,
		bindCase{"uint64(1<<63)", 1 << 63, uint64(1 << 63)},
		bindCase{"uint(MaxUint)", math.MaxUint, uint(math.MaxUint)})
	for _, c := range cases {
		lit, litErr := Compile(fmt.Sprintf("%s%d", limitSQL, c.n))
		bound, err := tmpl.Bind(c.arg)
		switch {
		case litErr == nil && err != nil:
			t.Errorf("%s: %v; the literal LIMIT %d compiles", c.name, err, c.n)
		case litErr == nil && bound.Query.Stop != lit.Query.Stop:
			t.Errorf("%s: binds %+v, the literal %+v", c.name, bound.Query.Stop, lit.Query.Stop)
		case litErr != nil && err == nil:
			t.Errorf("%s: bound K = %d; the literal LIMIT %d fails: %v", c.name, bound.Query.Stop.K, c.n, litErr)
		case litErr != nil && !strings.Contains(err.Error(), fmt.Sprintf("%d overflows the slot", c.n)):
			t.Errorf("%s: %v, want %d named as overflowing the slot", c.name, err, c.n)
		}
	}
}

// TestPrepareParamMetadata checks slot descriptors: order, kind,
// context, and byte offsets.
func TestPrepareParamMetadata(t *testing.T) {
	src := "SELECT AVG(x) FROM f WHERE a = ? AND b IN (?) AND t > ? GROUP BY g HAVING AVG(x) > ? WITHIN ?% PARALLEL ?"
	tmpl, err := Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	// HAVING and WITHIN cannot combine; re-do with a legal statement.
	if _, err := tmpl.Bind("A", "B", 1.0, 2.0, 5.0, 2); err == nil {
		t.Fatal("HAVING+WITHIN statement bound; want planning error")
	}

	src = "SELECT AVG(x) FROM f WHERE a = ? AND t > ? WITHIN ?% PARALLEL ?"
	tmpl, err = Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	params := tmpl.Params()
	if len(params) != 4 || tmpl.NumParams() != 4 {
		t.Fatalf("NumParams = %d, want 4", len(params))
	}
	wantKinds := []ParamKind{ParamString, ParamFloat, ParamFloat, ParamInt}
	wantCtx := []string{"WHERE a = ?", "WHERE t > ?", "WITHIN ?%", "PARALLEL ?"}
	for i, p := range params {
		if p.Index != i {
			t.Errorf("param %d: Index = %d", i, p.Index)
		}
		if p.Kind != wantKinds[i] {
			t.Errorf("param %d: Kind = %v, want %v", i, p.Kind, wantKinds[i])
		}
		if p.Context != wantCtx[i] {
			t.Errorf("param %d: Context = %q, want %q", i, p.Context, wantCtx[i])
		}
		if src[p.Pos] != '?' {
			t.Errorf("param %d: Pos %d points at %q, want '?'", i, p.Pos, src[p.Pos])
		}
	}
}

// TestBindErrors checks typed binding failures: position annotation,
// arity, type mismatches, and deferred validation.
func TestBindErrors(t *testing.T) {
	mustPrepare := func(src string) *Template {
		t.Helper()
		tmpl, err := Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		return tmpl
	}

	// Type mismatch carries the '?' byte offset.
	src := "SELECT AVG(x) FROM f WHERE a = ?"
	tmpl := mustPrepare(src)
	_, err := tmpl.Bind(42)
	if err == nil {
		t.Fatal("int bound to string slot")
	}
	se, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T, want *Error", err)
	}
	if se.Pos != strings.IndexByte(src, '?') {
		t.Errorf("error Pos = %d, want %d", se.Pos, strings.IndexByte(src, '?'))
	}
	if !strings.Contains(se.Error(), "parameter 1") || !strings.Contains(se.Error(), "WHERE a = ?") {
		t.Errorf("error %q missing slot identification", se.Error())
	}

	// Arity errors: too few points at the first unbound slot.
	tmpl = mustPrepare("SELECT AVG(x) FROM f WHERE a = ? AND t > ?")
	if _, err := tmpl.Bind("A"); err == nil {
		t.Error("underbinding accepted")
	} else if se, ok := err.(*Error); !ok || se.Pos < 0 {
		t.Errorf("underbinding error = %v, want positional *Error", err)
	}
	if _, err := tmpl.Bind("A", 1.0, 2.0); err == nil {
		t.Error("overbinding accepted")
	}

	// Parameterless statements reject any arguments.
	tmpl = mustPrepare("SELECT AVG(x) FROM f")
	if _, err := tmpl.Bind("stray"); err == nil {
		t.Error("argument to parameterless statement accepted")
	}
	if _, err := tmpl.Bind(); err != nil {
		t.Errorf("zero-arg bind of parameterless statement: %v", err)
	}

	// Numeric slot rejects strings.
	tmpl = mustPrepare("SELECT AVG(x) FROM f WHERE t > ?")
	if _, err := tmpl.Bind("fast"); err == nil {
		t.Error("string bound to number slot")
	}

	// Integer slots reject floats and non-positive values.
	tmpl = mustPrepare("SELECT AVG(x) FROM f GROUP BY g ORDER BY AVG(x) DESC LIMIT ?")
	if _, err := tmpl.Bind(2.5); err == nil {
		t.Error("float bound to LIMIT slot")
	}
	if _, err := tmpl.Bind(0); err == nil {
		t.Error("LIMIT 0 accepted")
	}
	if _, err := tmpl.Bind(-3); err == nil {
		t.Error("negative LIMIT accepted")
	}
	if c, err := tmpl.Bind(int64(2)); err != nil {
		t.Errorf("LIMIT int64(2): %v", err)
	} else if c.Query.Stop.Kind != query.StopTopK || c.Query.Stop.K != 2 {
		t.Errorf("LIMIT int64(2) stop = %+v", c.Query.Stop)
	}

	// WITHIN validation is deferred to bind for '?' targets.
	tmpl = mustPrepare("SELECT AVG(x) FROM f WITHIN ?%")
	if _, err := tmpl.Bind(-5.0); err == nil {
		t.Error("negative WITHIN percentage accepted")
	}
	if c, err := tmpl.Bind(5.0); err != nil {
		t.Errorf("WITHIN 5%%: %v", err)
	} else if c.Query.Stop.Kind != query.StopRelWidth || c.Query.Stop.Epsilon != 0.05 {
		t.Errorf("WITHIN ?%% bound 5 → stop %+v, want rel 0.05", c.Query.Stop)
	}

	// Non-finite numbers are rejected everywhere: no literal can spell
	// them, and e.g. a NaN HAVING threshold would silently scan to
	// exhaustion (no CI can ever exclude NaN).
	tmpl = mustPrepare("SELECT AVG(x) FROM f GROUP BY g HAVING AVG(x) > ?")
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := tmpl.Bind(v); err == nil {
			t.Errorf("non-finite threshold %v accepted", v)
		}
	}
	tmpl = mustPrepare("SELECT AVG(x) FROM f WHERE t > ?")
	if _, err := tmpl.Bind(math.NaN()); err == nil {
		t.Error("NaN comparison bound accepted")
	}

	// BETWEEN bounds reversed is caught at bind-time planning.
	tmpl = mustPrepare("SELECT AVG(x) FROM f WHERE d BETWEEN ? AND ?")
	if _, err := tmpl.Bind(10.0, 5.0); err == nil {
		t.Error("reversed BETWEEN bounds accepted")
	}

	// PARALLEL '?' is a retired hint that still takes its slot: it
	// must be positive, and binds to nothing.
	tmpl = mustPrepare("SELECT AVG(x) FROM f PARALLEL ?")
	if _, err := tmpl.Bind(0); err == nil {
		t.Error("PARALLEL 0 accepted")
	}
	if c, err := tmpl.Bind(8); err != nil {
		t.Errorf("PARALLEL 8: %v", err)
	} else if plan := c.Explain(); strings.Contains(plan, "PARALLEL") {
		t.Errorf("bound PARALLEL 8 still rendered:\n%s", plan)
	}

	// PERCENTILE '?' targets must lie strictly between 0 and 1; NaN and
	// ±Inf fall to the same finiteness guard as every numeric slot. The
	// error names the slot and its byte offset.
	src = "SELECT PERCENTILE(x, ?) FROM f"
	tmpl = mustPrepare(src)
	for _, v := range []float64{0, 1, 1.5, -0.25, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := tmpl.Bind(v)
		if err == nil {
			t.Errorf("PERCENTILE target %v accepted", v)
			continue
		}
		se, ok := err.(*Error)
		if !ok {
			t.Errorf("PERCENTILE target %v: error type %T, want *Error", v, err)
			continue
		}
		if se.Pos != strings.IndexByte(src, '?') {
			t.Errorf("PERCENTILE target %v: error Pos = %d, want %d", v, se.Pos, strings.IndexByte(src, '?'))
		}
		if !strings.Contains(se.Error(), "parameter 1") {
			t.Errorf("PERCENTILE target %v: error %q missing slot identification", v, se.Error())
		}
	}
	if c, err := tmpl.Bind(0.95); err != nil {
		t.Errorf("PERCENTILE 0.95: %v", err)
	} else if got := c.Query.Aggs; len(got) != 1 || got[0].Kind != query.Percentile || got[0].P != 0.95 {
		t.Errorf("PERCENTILE 0.95 plans onto %+v", got)
	}

	// The same guard applies when the watched aggregate of a HAVING
	// clause carries the slot.
	tmpl = mustPrepare("SELECT PERCENTILE(x, ?) FROM f GROUP BY g HAVING PERCENTILE(x, ?) > 5")
	if _, err := tmpl.Bind(0.5, 2.0); err == nil {
		t.Error("HAVING PERCENTILE target 2.0 accepted")
	}
}

// TestCompileRejectsParams: the one-step Compile path refuses
// placeholders, pointing at the first one.
func TestCompileRejectsParams(t *testing.T) {
	_, err := Compile("SELECT AVG(x) FROM f WHERE a = ?")
	if err == nil {
		t.Fatal("Compile accepted a parameterized statement")
	}
	if !strings.Contains(err.Error(), "parameter placeholder") {
		t.Errorf("error = %v", err)
	}
}

// TestMalformedPlaceholders: '?' outside value positions is a parse
// error, never a panic.
func TestMalformedPlaceholders(t *testing.T) {
	bad := []string{
		"SELECT AVG(?) FROM f",
		"SELECT ? FROM f",
		"SELECT AVG(x) FROM ?",
		"SELECT AVG(x) FROM f GROUP BY ?",
		"SELECT AVG(x) FROM f WHERE ? = 'v'",
		"SELECT AVG(x) FROM f ORDER BY ?",
		"SELECT AVG(x) FROM f WHERE a ? 'v'",
		"?",
		"SELECT AVG(x) FROM f WITHIN ABS ? %",
	}
	for _, src := range bad {
		if _, err := Prepare(src); err == nil {
			t.Errorf("Prepare(%q) accepted", src)
		}
	}
}

// TestTemplateBindIsolated: binding never mutates the template, so a
// template can serve concurrent binds with different values.
func TestTemplateBindIsolated(t *testing.T) {
	tmpl, err := Prepare("SELECT AVG(x) FROM f WHERE a = ? AND c IN (?, 'Z') AND t > ?")
	if err != nil {
		t.Fatal(err)
	}
	c1, err := tmpl.Bind("A", "B", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := tmpl.Bind("X", "Y", 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if got := c1.Query.Pred.CatIn[0].Values; len(got) != 1 || got[0] != "A" {
		t.Errorf("first bind's equality value changed to %q", got)
	}
	if got := c2.Query.Pred.CatIn[0].Values; len(got) != 1 || got[0] != "X" {
		t.Errorf("second bind equality = %q", got)
	}
	in1, in2 := c1.Query.Pred.CatIn[1].Values, c2.Query.Pred.CatIn[1].Values
	if len(in1) != 2 || len(in2) != 2 || in1[1] != "B" || in2[1] != "Y" {
		t.Errorf("IN lists cross-contaminated: %v vs %v", in1, in2)
	}
}

// TestTemplateExplain spot-checks the plan rendering.
func TestTemplateExplain(t *testing.T) {
	tmpl, err := Prepare("SELECT AVG(DepDelay) FROM flights WHERE Origin = ? GROUP BY Airline HAVING AVG(DepDelay) > ? PARALLEL 4")
	if err != nil {
		t.Fatal(err)
	}
	plan := tmpl.Explain()
	for _, sub := range []string{
		"SELECT AVG(DepDelay)",
		"FROM flights",
		"Origin = $1",
		"GROUP BY Airline",
		"STOP threshold",
		"HAVING AVG(DepDelay) > $2",
		"$1 string — WHERE Origin = ?",
		"$2 number — HAVING threshold ?",
	} {
		if !strings.Contains(plan, sub) {
			t.Errorf("Explain missing %q in:\n%s", sub, plan)
		}
	}
	if strings.Contains(plan, "PARALLEL") {
		t.Errorf("Explain renders the retired PARALLEL hint:\n%s", plan)
	}
}
