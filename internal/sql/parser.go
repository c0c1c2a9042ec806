package sql

import (
	"strconv"
	"strings"
)

// ---- AST ----------------------------------------------------------------

// Statement is the parse tree of one SELECT statement, before planning.
// Value positions written as the parameter marker '?' are recorded in
// Params (in text order) and referenced from the clause they occur in
// by their 1-based parameter number; 0 always means "literal value
// present". Template.Bind substitutes bound arguments before planning.
type Statement struct {
	Aggs          []AggExpr // SELECT list, in text order (≥ 1)
	Table         string
	Joins         []Join
	Where         []Pred
	GroupBy       []string
	Having        *Having
	OrderBy       *OrderBy
	Within        *Within
	Exact         bool
	ParallelParam int     // 1-based parameter number of PARALLEL ?; 0 = none
	Params        []Param // '?' slots in text order

	// bound marks a bindClone whose parameter slots have been filled;
	// Plan refuses a statement with parameters that is not bound.
	bound bool
}

// AggExpr is an aggregate call: AVG(expr), SUM(expr), COUNT(*),
// COUNT(DISTINCT col), MEDIAN(expr), PERCENTILE(expr, p), VAR(expr),
// or STDDEV(expr).
type AggExpr struct {
	Func     string  // upper-cased function name
	Star     bool    // COUNT(*)
	Distinct bool    // COUNT(DISTINCT col)
	Expr     Node    // aggregate argument (nil for COUNT(*))
	P        float64 // PERCENTILE target in (0, 1)
	PParam   int     // 1-based parameter number of PERCENTILE(expr, ?); 0 = literal
	Pos      int
}

// Node is an arithmetic expression node over continuous columns.
type Node interface{ node() }

// Join is one JOIN clause, normalized so that Dim names the joined
// dimension table and Parent the side it links to: the FROM table (a
// star arm, ParentColumn is a fact foreign-key column) or an
// earlier-joined dimension (a snowflake chain, ParentColumn is an
// attribute of that dimension). KeyColumn is the joined table's key
// column as written; it must be "key" — dimensions are keyed maps and
// "key" names the map key, the value the fact FK stores.
type Join struct {
	Dim          string
	KeyColumn    string
	Parent       string
	ParentColumn string
	Pos          int
}

// ColRef references a column, optionally qualified as Table.Name.
type ColRef struct {
	Table string
	Name  string
	Pos   int
}

// NumLit is a numeric literal.
type NumLit struct{ Value float64 }

// BinOp is a binary arithmetic operation: '+', '-' or '*'.
type BinOp struct {
	Op   byte
	L, R Node
}

// UnaryOp is unary minus ('-') or ABS ('|').
type UnaryOp struct {
	Op byte
	X  Node
}

func (ColRef) node()  {}
func (NumLit) node()  {}
func (BinOp) node()   {}
func (UnaryOp) node() {}

// PredOp identifies a WHERE predicate form.
type PredOp int

const (
	// PredEq is categorical equality: col = 'value'.
	PredEq PredOp = iota
	// PredIn is categorical membership: col IN ('a', 'b').
	PredIn
	// PredGt, PredGe, PredLt, PredLe are one-sided numeric comparisons.
	PredGt
	PredGe
	PredLt
	PredLe
	// PredBetween is an inclusive numeric range.
	PredBetween
	// PredNe is categorical inequality: dim.attr != 'value'. Accepted on
	// dimension attributes only (the planner enforces this).
	PredNe
)

// Pred is one conjunct of the WHERE clause. Table is the optional
// qualifier: empty or the FROM table for fact-side predicates, a
// JOINed table name for dimension-attribute predicates. The *Param
// fields hold 1-based parameter numbers for values written as '?'
// (0 = literal).
type Pred struct {
	Table     string
	Column    string
	Op        PredOp
	Set       []string // PredEq/PredNe/PredIn values (literals; bound members are appended at Bind)
	SetParams []int    // parameter numbers of '?' members: col = ?, col IN (?, …)
	Lo, Hi    float64  // numeric forms (Lo for Gt/Ge/Between, Hi for Lt/Le/Between)
	LoParam   int      // Gt/Ge/Between low bound written as '?'
	HiParam   int      // Lt/Le/Between high bound written as '?'
	Pos       int
}

// Having is the HAVING clause: AGG(c) > v or AGG(c) < v.
type Having struct {
	Agg        AggExpr
	Greater    bool
	Value      float64
	ValueParam int // 1-based parameter number of a '?' threshold; 0 = literal
	Pos        int
}

// OrderBy is the ORDER BY clause; Limit 0 means no LIMIT (full
// ordering).
type OrderBy struct {
	Agg        AggExpr
	Desc       bool
	Limit      int
	LimitParam int // 1-based parameter number of LIMIT ?; 0 = literal
	Pos        int
}

// Within is the WITHIN clause: a relative (percent) or absolute CI
// width target.
type Within struct {
	Relative   bool
	Value      float64 // fraction when Relative (5% → 0.05), else absolute width
	ValueParam int     // 1-based parameter number of a '?' target; 0 = literal
	Pos        int
}

// ---- Parser -------------------------------------------------------------

type parser struct {
	lex    lexer
	tok    token // current token
	params []Param
}

// param consumes the current '?' token, records a parameter slot of
// the given kind, and returns its 1-based parameter number. context is
// the human-readable slot description used in binding errors.
func (p *parser) param(kind ParamKind, context string) (int, error) {
	slot := Param{Index: len(p.params), Pos: p.tok.pos, Kind: kind, Context: context}
	p.params = append(p.params, slot)
	if err := p.advance(); err != nil {
		return 0, err
	}
	return slot.Index + 1, nil
}

// parseNumberOrParam parses a numeric literal or a '?' placeholder,
// returning the literal value and the 1-based parameter number (0 for
// literals).
func (p *parser) parseNumberOrParam(context string) (float64, int, error) {
	if p.tok.kind == tokQuestion {
		n, err := p.param(ParamFloat, context)
		return 0, n, err
	}
	v, err := p.parseNumber()
	return v, 0, err
}

// Parse parses one SELECT statement.
func Parse(src string) (*Statement, error) {
	p := &parser{lex: lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	st, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, errf(p.tok.pos, "unexpected %s after end of query", p.tok.describe())
	}
	return st, nil
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// isKeyword reports whether the current token is the given keyword
// (case-insensitive).
func (p *parser) isKeyword(kw string) bool {
	return p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, kw)
}

// expectKeyword consumes the given keyword or fails.
func (p *parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return errf(p.tok.pos, "expected %s, found %s", kw, p.tok.describe())
	}
	return p.advance()
}

// expect consumes a token of the given kind or fails.
func (p *parser) expect(kind tokenKind, what string) (token, error) {
	if p.tok.kind != kind {
		return token{}, errf(p.tok.pos, "expected %s, found %s", what, p.tok.describe())
	}
	t := p.tok
	return t, p.advance()
}

func (p *parser) parseSelect() (*Statement, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	st := &Statement{}
	for {
		agg, err := p.parseAgg()
		if err != nil {
			return nil, err
		}
		st.Aggs = append(st.Aggs, agg)
		if p.tok.kind != tokComma {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}

	if !p.isKeyword("FROM") {
		return nil, errf(p.tok.pos, "expected FROM, found %s", p.tok.describe())
	}
	var err error
	if err = p.advance(); err != nil {
		return nil, err
	}
	tbl, err := p.expect(tokIdent, "table name")
	if err != nil {
		return nil, err
	}
	st.Table = tbl.text

	for p.isKeyword("JOIN") {
		j, err := p.parseJoin(st)
		if err != nil {
			return nil, err
		}
		st.Joins = append(st.Joins, j)
	}

	if p.isKeyword("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if st.Where, err = p.parseWhere(); err != nil {
			return nil, err
		}
	}
	if p.isKeyword("GROUP") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			qual, col, _, err := p.maybeQualified("GROUP BY column")
			if err != nil {
				return nil, err
			}
			// Qualified names are stored as written ("tbl.col");
			// identifiers cannot contain '.', so the encoding is
			// unambiguous and the planner resolves the qualifier.
			if qual != "" {
				col = qual + "." + col
			}
			st.GroupBy = append(st.GroupBy, col)
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.isKeyword("HAVING") {
		if st.Having, err = p.parseHaving(); err != nil {
			return nil, err
		}
	}
	if p.isKeyword("ORDER") {
		if st.OrderBy, err = p.parseOrderBy(); err != nil {
			return nil, err
		}
	}
	switch {
	case p.isKeyword("WITHIN"):
		if st.Within, err = p.parseWithin(); err != nil {
			return nil, err
		}
	case p.isKeyword("EXACT"):
		st.Exact = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	// PARALLEL n is a retired execution hint. It still parses, and a
	// PARALLEL ? still takes its positional slot, so that statements
	// written for older releases keep their text and their argument
	// positions; the value is checked and dropped.
	if p.isKeyword("PARALLEL") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokQuestion {
			if st.ParallelParam, err = p.param(ParamInt, "PARALLEL ?"); err != nil {
				return nil, err
			}
		} else {
			t, err := p.expect(tokNumber, "PARALLEL worker count")
			if err != nil {
				return nil, err
			}
			if n, err := strconv.Atoi(t.text); err != nil || n <= 0 {
				return nil, errf(t.pos, "PARALLEL wants a positive integer, found %q", t.text)
			}
		}
	}
	st.Params = p.params
	return st, nil
}

// maybeQualified consumes an identifier optionally qualified as
// table.column, returning the qualifier ("" when bare), the column
// name, and the position of the first identifier.
func (p *parser) maybeQualified(what string) (qual, name string, pos int, err error) {
	t, err := p.expect(tokIdent, what)
	if err != nil {
		return "", "", 0, err
	}
	if p.tok.kind != tokDot {
		return "", t.text, t.pos, nil
	}
	if err := p.advance(); err != nil {
		return "", "", 0, err
	}
	c, err := p.expect(tokIdent, what+" after '.'")
	if err != nil {
		return "", "", 0, err
	}
	return t.text, c.text, t.pos, nil
}

// parseJoin parses JOIN dim ON a.x = b.y and normalizes it: exactly
// one ON operand must belong to the joined table (its column is the
// dimension key), and the other must reference the FROM table or an
// earlier-joined dimension.
func (p *parser) parseJoin(st *Statement) (Join, error) {
	pos := p.tok.pos
	if err := p.advance(); err != nil { // JOIN
		return Join{}, err
	}
	dim, err := p.expect(tokIdent, "JOIN table name")
	if err != nil {
		return Join{}, err
	}
	if dim.text == st.Table {
		return Join{}, errf(dim.pos, "cannot JOIN the FROM table %q to itself", dim.text)
	}
	for _, j := range st.Joins {
		if j.Dim == dim.text {
			return Join{}, errf(dim.pos, "table %q is joined twice", dim.text)
		}
	}
	if err := p.expectKeyword("ON"); err != nil {
		return Join{}, err
	}
	lt, lc, lpos, err := p.parseOnOperand()
	if err != nil {
		return Join{}, err
	}
	if _, err := p.expect(tokEq, "'=' in ON clause"); err != nil {
		return Join{}, err
	}
	rt, rc, rpos, err := p.parseOnOperand()
	if err != nil {
		return Join{}, err
	}

	j := Join{Dim: dim.text, Pos: pos}
	switch {
	case lt == dim.text && rt == dim.text:
		return Join{}, errf(lpos, "ON clause must link %q to the FROM table or an earlier JOIN, found %q on both sides", dim.text, dim.text)
	case lt == dim.text:
		j.KeyColumn, j.Parent, j.ParentColumn = lc, rt, rc
	case rt == dim.text:
		j.KeyColumn, j.Parent, j.ParentColumn = rc, lt, lc
	default:
		return Join{}, errf(lpos, "ON clause must reference the joined table %q on one side", dim.text)
	}
	if !st.joinable(j.Parent) {
		return Join{}, errf(pos, "ON clause links %q to %q, which is neither the FROM table nor an earlier JOIN", j.Dim, j.Parent)
	}
	if j.KeyColumn != "key" {
		return Join{}, errf(rpos, "JOIN must equate against the dimension key column %s.key, found %s.%s (dimensions are keyed by the value the foreign-key column stores)", j.Dim, j.Dim, j.KeyColumn)
	}
	return j, nil
}

// parseOnOperand parses one side of an ON equality, which must be a
// qualified table.column reference.
func (p *parser) parseOnOperand() (tbl, col string, pos int, err error) {
	qual, name, pos, err := p.maybeQualified("ON operand (table.column)")
	if err != nil {
		return "", "", 0, err
	}
	if qual == "" {
		return "", "", 0, errf(pos, "ON operands must be qualified as table.column, found bare %q", name)
	}
	return qual, name, pos, nil
}

// joinable reports whether name may appear as a JOIN parent: the FROM
// table or an already-joined dimension.
func (st *Statement) joinable(name string) bool {
	if name == st.Table {
		return true
	}
	for _, j := range st.Joins {
		if j.Dim == name {
			return true
		}
	}
	return false
}

// aggFuncs is the accepted aggregate-function vocabulary.
var aggFuncs = map[string]bool{
	"AVG": true, "SUM": true, "COUNT": true,
	"MEDIAN": true, "PERCENTILE": true, "VAR": true, "STDDEV": true,
}

const aggFuncList = "AVG, SUM, COUNT, MEDIAN, PERCENTILE, VAR, or STDDEV"

// parseAgg parses one aggregate call: AVG(expr), SUM(expr), COUNT(*),
// COUNT(DISTINCT col), MEDIAN(expr), PERCENTILE(expr, p), VAR(expr),
// or STDDEV(expr).
func (p *parser) parseAgg() (AggExpr, error) {
	if p.tok.kind != tokIdent {
		return AggExpr{}, errf(p.tok.pos, "expected aggregate (%s), found %s", aggFuncList, p.tok.describe())
	}
	fn := strings.ToUpper(p.tok.text)
	pos := p.tok.pos
	if !aggFuncs[fn] {
		return AggExpr{}, errf(pos, "unsupported aggregate %q (want %s)", p.tok.text, aggFuncList)
	}
	if err := p.advance(); err != nil {
		return AggExpr{}, err
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return AggExpr{}, err
	}
	agg := AggExpr{Func: fn, Pos: pos}
	switch fn {
	case "COUNT":
		switch {
		case p.tok.kind == tokStar:
			agg.Star = true
			if err := p.advance(); err != nil {
				return AggExpr{}, err
			}
		case p.isKeyword("DISTINCT"):
			if err := p.advance(); err != nil {
				return AggExpr{}, err
			}
			agg.Distinct = true
			qual, name, cpos, err := p.maybeQualified("COUNT(DISTINCT column)")
			if err != nil {
				return AggExpr{}, err
			}
			agg.Expr = ColRef{Table: qual, Name: name, Pos: cpos}
		default:
			return AggExpr{}, errf(p.tok.pos, "COUNT supports COUNT(*) and COUNT(DISTINCT col), found %s", p.tok.describe())
		}
	case "PERCENTILE":
		e, err := p.parseExpr()
		if err != nil {
			return AggExpr{}, err
		}
		agg.Expr = e
		if _, err := p.expect(tokComma, "',' (PERCENTILE wants a target: PERCENTILE(col, p))"); err != nil {
			return AggExpr{}, err
		}
		if p.tok.kind == tokQuestion {
			if agg.PParam, err = p.param(ParamPercentile, "PERCENTILE(…, ?)"); err != nil {
				return AggExpr{}, err
			}
		} else {
			ppos := p.tok.pos
			v, err := p.parseNumber()
			if err != nil {
				return AggExpr{}, err
			}
			if !(v > 0 && v < 1) {
				return AggExpr{}, errf(ppos, "PERCENTILE target must lie strictly between 0 and 1, found %g", v)
			}
			agg.P = v
		}
	default:
		e, err := p.parseExpr()
		if err != nil {
			return AggExpr{}, err
		}
		agg.Expr = e
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return AggExpr{}, err
	}
	return agg, nil
}

// parseExpr parses an additive expression: term (('+'|'-') term)*.
func (p *parser) parseExpr() (Node, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokPlus || p.tok.kind == tokMinus {
		op := byte('+')
		if p.tok.kind == tokMinus {
			op = '-'
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		l = BinOp{Op: op, L: l, R: r}
	}
	return l, nil
}

// parseTerm parses a multiplicative expression: factor ('*' factor)*.
func (p *parser) parseTerm() (Node, error) {
	l, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokStar {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		l = BinOp{Op: '*', L: l, R: r}
	}
	return l, nil
}

// parseFactor parses a primary: column, number, unary minus, ABS(expr),
// or a parenthesized expression.
func (p *parser) parseFactor() (Node, error) {
	switch p.tok.kind {
	case tokMinus:
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return UnaryOp{Op: '-', X: x}, nil
	case tokNumber:
		v, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, errf(p.tok.pos, "bad number %q", p.tok.text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return NumLit{Value: v}, nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		name, pos := p.tok.text, p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokDot {
			if err := p.advance(); err != nil {
				return nil, err
			}
			col, err := p.expect(tokIdent, "column after '.'")
			if err != nil {
				return nil, err
			}
			return ColRef{Table: name, Name: col.text, Pos: pos}, nil
		}
		if strings.EqualFold(name, "ABS") && p.tok.kind == tokLParen {
			if err := p.advance(); err != nil {
				return nil, err
			}
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen, "')'"); err != nil {
				return nil, err
			}
			return UnaryOp{Op: '|', X: x}, nil
		}
		return ColRef{Name: name, Pos: pos}, nil
	default:
		return nil, errf(p.tok.pos, "expected column, number, or '(', found %s", p.tok.describe())
	}
}

// parseWhere parses pred (AND pred)*.
func (p *parser) parseWhere() ([]Pred, error) {
	var preds []Pred
	for {
		pr, err := p.parsePred()
		if err != nil {
			return nil, err
		}
		preds = append(preds, pr)
		if !p.isKeyword("AND") {
			return preds, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
}

func (p *parser) parsePred() (Pred, error) {
	qual, col, pos, err := p.maybeQualified("predicate column")
	if err != nil {
		return Pred{}, err
	}
	pr := Pred{Table: qual, Column: col, Pos: pos}
	// display is the column as written, used in parameter-slot contexts
	// and error messages.
	display := col
	if qual != "" {
		display = qual + "." + col
	}
	switch {
	case p.tok.kind == tokEq, p.tok.kind == tokNe:
		op, opText := PredEq, "="
		if p.tok.kind == tokNe {
			op, opText = PredNe, "!="
		}
		if err := p.advance(); err != nil {
			return Pred{}, err
		}
		if p.tok.kind == tokQuestion {
			n, err := p.param(ParamString, "WHERE "+display+" "+opText+" ?")
			if err != nil {
				return Pred{}, err
			}
			pr.Op, pr.SetParams = op, []int{n}
			break
		}
		if p.tok.kind == tokNumber {
			return Pred{}, errf(p.tok.pos, "%s %s %s: equality predicates take a quoted categorical value; use BETWEEN for numeric columns", display, opText, p.tok.text)
		}
		s, err := p.expect(tokString, "quoted value")
		if err != nil {
			return Pred{}, err
		}
		pr.Op, pr.Set = op, []string{s.text}
	case p.isKeyword("IN"):
		if err := p.advance(); err != nil {
			return Pred{}, err
		}
		if _, err := p.expect(tokLParen, "'('"); err != nil {
			return Pred{}, err
		}
		for {
			if p.tok.kind == tokQuestion {
				n, err := p.param(ParamString, "WHERE "+display+" IN (?)")
				if err != nil {
					return Pred{}, err
				}
				pr.SetParams = append(pr.SetParams, n)
			} else {
				s, err := p.expect(tokString, "quoted value")
				if err != nil {
					return Pred{}, err
				}
				pr.Set = append(pr.Set, s.text)
			}
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return Pred{}, err
			}
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return Pred{}, err
		}
		pr.Op = PredIn
	case p.isKeyword("BETWEEN"):
		if err := p.advance(); err != nil {
			return Pred{}, err
		}
		lo, loParam, err := p.parseNumberOrParam("WHERE " + display + " BETWEEN ? AND …")
		if err != nil {
			return Pred{}, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return Pred{}, err
		}
		hi, hiParam, err := p.parseNumberOrParam("WHERE " + display + " BETWEEN … AND ?")
		if err != nil {
			return Pred{}, err
		}
		pr.Op, pr.Lo, pr.Hi = PredBetween, lo, hi
		pr.LoParam, pr.HiParam = loParam, hiParam
	case p.tok.kind == tokGt, p.tok.kind == tokGe, p.tok.kind == tokLt, p.tok.kind == tokLe:
		kind := p.tok.kind
		op := map[tokenKind]string{tokGt: ">", tokGe: ">=", tokLt: "<", tokLe: "<="}[kind]
		if err := p.advance(); err != nil {
			return Pred{}, err
		}
		v, vp, err := p.parseNumberOrParam("WHERE " + display + " " + op + " ?")
		if err != nil {
			return Pred{}, err
		}
		switch kind {
		case tokGt:
			pr.Op, pr.Lo, pr.LoParam = PredGt, v, vp
		case tokGe:
			pr.Op, pr.Lo, pr.LoParam = PredGe, v, vp
		case tokLt:
			pr.Op, pr.Hi, pr.HiParam = PredLt, v, vp
		case tokLe:
			pr.Op, pr.Hi, pr.HiParam = PredLe, v, vp
		}
	default:
		return Pred{}, errf(p.tok.pos, "expected =, !=, IN, BETWEEN, or a comparison after column %q, found %s", display, p.tok.describe())
	}
	return pr, nil
}

// parseNumber parses a possibly-negated numeric literal.
func (p *parser) parseNumber() (float64, error) {
	neg := false
	if p.tok.kind == tokMinus {
		neg = true
		if err := p.advance(); err != nil {
			return 0, err
		}
	}
	t, err := p.expect(tokNumber, "number")
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, errf(t.pos, "bad number %q", t.text)
	}
	if neg {
		v = -v
	}
	return v, nil
}

func (p *parser) parseHaving() (*Having, error) {
	pos := p.tok.pos
	if err := p.advance(); err != nil { // HAVING
		return nil, err
	}
	agg, err := p.parseAgg()
	if err != nil {
		return nil, err
	}
	h := &Having{Agg: agg, Pos: pos}
	switch p.tok.kind {
	case tokGt:
		h.Greater = true
	case tokLt:
		h.Greater = false
	default:
		return nil, errf(p.tok.pos, "HAVING supports only > and < comparisons, found %s", p.tok.describe())
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if h.Value, h.ValueParam, err = p.parseNumberOrParam("HAVING threshold ?"); err != nil {
		return nil, err
	}
	return h, nil
}

func (p *parser) parseOrderBy() (*OrderBy, error) {
	pos := p.tok.pos
	if err := p.advance(); err != nil { // ORDER
		return nil, err
	}
	if err := p.expectKeyword("BY"); err != nil {
		return nil, err
	}
	agg, err := p.parseAgg()
	if err != nil {
		return nil, err
	}
	ob := &OrderBy{Agg: agg, Pos: pos}
	switch {
	case p.isKeyword("DESC"):
		ob.Desc = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	case p.isKeyword("ASC"):
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.isKeyword("LIMIT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokQuestion {
			if ob.LimitParam, err = p.param(ParamInt, "LIMIT ?"); err != nil {
				return nil, err
			}
		} else {
			t, err := p.expect(tokNumber, "LIMIT count")
			if err != nil {
				return nil, err
			}
			k, err := strconv.Atoi(t.text)
			if err != nil || k <= 0 {
				return nil, errf(t.pos, "LIMIT wants a positive integer, found %q", t.text)
			}
			ob.Limit = k
		}
	}
	return ob, nil
}

func (p *parser) parseWithin() (*Within, error) {
	pos := p.tok.pos
	if err := p.advance(); err != nil { // WITHIN
		return nil, err
	}
	if p.isKeyword("ABS") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		v, vp, err := p.parseNumberOrParam("WITHIN ABS ?")
		if err != nil {
			return nil, err
		}
		if vp == 0 && v <= 0 {
			return nil, errf(pos, "WITHIN ABS wants a positive width, found %g", v)
		}
		return &Within{Relative: false, Value: v, ValueParam: vp, Pos: pos}, nil
	}
	v, vp, err := p.parseNumberOrParam("WITHIN ?%")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPercent, "'%' (or use WITHIN ABS for an absolute width)"); err != nil {
		return nil, err
	}
	if vp == 0 {
		if v <= 0 {
			return nil, errf(pos, "WITHIN wants a positive percentage, found %g%%", v)
		}
		v /= 100
	}
	return &Within{Relative: true, Value: v, ValueParam: vp, Pos: pos}, nil
}
