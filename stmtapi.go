package fastframe

import (
	"context"

	"fastframe/internal/sql"
)

// Stmt is a prepared statement: the SQL text is compiled once by
// Engine.Prepare and then run any number of times with different bound
// arguments — the compile-once / run-many half of the interactive
// query loop. Value positions written as the positional parameter '?'
// (WHERE values and IN members, BETWEEN and comparison bounds, the
// HAVING threshold, the WITHIN target, LIMIT, and PARALLEL) are bound
// per run, in text order:
//
//	stmt, _ := eng.Prepare(
//	    "SELECT AVG(DepDelay) FROM flights WHERE Origin = ? GROUP BY Airline WITHIN ?%")
//	res, _ := stmt.Query(ctx, "ORD", 5.0)
//	res, _ = stmt.Query(ctx, "LAX", 2.5)
//
// Binding is typed per slot — string slots take strings, numeric slots
// any Go numeric type, LIMIT/PARALLEL slots positive integers — and a
// mismatch fails before any scanning starts, with an error carrying
// the byte offset of the offending '?'. A Stmt is immutable and safe
// for concurrent use; each run binds into a private copy of the plan.
type Stmt struct {
	eng  *Engine
	tmpl *sql.Template
	opts []Option
}

// Prepare compiles one SQL statement (through the engine's plan cache)
// without executing it. The options become the statement's baseline
// execution configuration for every run; per-run overrides are
// available via Bind followed by BoundStmt.Query. The FROM table is
// resolved at run time, so a statement may be prepared before its
// table is registered.
func (e *Engine) Prepare(sqlText string, opts ...Option) (*Stmt, error) {
	tmpl, err := e.template(sqlText)
	if err != nil {
		return nil, err
	}
	return &Stmt{eng: e, tmpl: tmpl, opts: append([]Option(nil), opts...)}, nil
}

// SQL returns the statement's original text.
func (s *Stmt) SQL() string { return s.tmpl.Source() }

// NumParams returns the number of '?' placeholders the statement
// declares (the arguments every run must bind).
func (s *Stmt) NumParams() int { return s.tmpl.NumParams() }

// Explain renders the statement's full logical plan, including its
// parameter slots, without executing it.
func (s *Stmt) Explain() string { return s.tmpl.Explain() }

// Bind type-checks one argument per '?' placeholder (in text order)
// and returns the bound, planned statement. Binding never mutates the
// Stmt, so concurrent Binds with different arguments are safe.
func (s *Stmt) Bind(args ...any) (*BoundStmt, error) {
	c, err := s.tmpl.Bind(args...)
	if err != nil {
		return nil, err
	}
	return &BoundStmt{stmt: s, c: c}, nil
}

// Query binds args and executes the statement approximately — the
// prepared equivalent of Engine.Query on the literal SQL; for a fixed
// seed the results are identical.
func (s *Stmt) Query(ctx context.Context, args ...any) (*Result, error) {
	b, err := s.Bind(args...)
	if err != nil {
		return nil, err
	}
	return b.Query(ctx)
}

// QueryExact binds args and evaluates the statement exactly (see
// Engine.QueryExact), ignoring the tail stopping clause.
func (s *Stmt) QueryExact(ctx context.Context, args ...any) (*ExactResult, error) {
	b, err := s.Bind(args...)
	if err != nil {
		return nil, err
	}
	return b.QueryExact(ctx)
}

// Stream binds args and starts the statement as a pull-based cursor
// over per-round interval snapshots — see Rows for the cursor
// contract.
func (s *Stmt) Stream(ctx context.Context, args ...any) (*Rows, error) {
	b, err := s.Bind(args...)
	if err != nil {
		return nil, err
	}
	return b.Stream(ctx)
}

// BoundStmt is a prepared statement with its parameters bound: a fully
// planned, immutable query ready to run (possibly several times —
// each run rebinds nothing).
type BoundStmt struct {
	stmt *Stmt
	c    sql.Compiled
}

// Explain renders the bound plan: the same full rendering as
// Stmt.Explain, with every parameter slot replaced by its bound value.
// For statements with JOIN clauses it additionally shows the bind-time
// join compilation against the engine's current registry — each
// fact-side IN atom with its key-set size (an empty set renders as the
// provably empty view it compiles to) — and, when the FROM table is
// registered, the static block-pruning prospect of the WHERE clause
// (zone-map range prunability and the combined block mask).
func (b *BoundStmt) Explain() string {
	return b.c.Explain() + b.stmt.eng.explainJoins(b.c) + b.stmt.eng.explainScanPrune(b.c)
}

// Query executes the bound statement approximately. Options given here
// apply after (and override) the Prepare-time options.
func (b *BoundStmt) Query(ctx context.Context, opts ...Option) (*Result, error) {
	return b.stmt.eng.run(ctx, b.c, b.runOpts(opts))
}

// QueryExact evaluates the bound statement exactly, ignoring the tail
// stopping clause and, like Engine.QueryExact, every option.
func (b *BoundStmt) QueryExact(ctx context.Context, _ ...Option) (*ExactResult, error) {
	return b.stmt.eng.runExact(ctx, b.c)
}

// Stream starts the bound statement as a pull-based cursor.
func (b *BoundStmt) Stream(ctx context.Context, opts ...Option) (*Rows, error) {
	return b.stmt.eng.streamRun(ctx, b.c, b.runOpts(opts))
}

// runOpts concatenates Prepare-time and run-time options without
// aliasing either slice.
func (b *BoundStmt) runOpts(opts []Option) []Option {
	if len(opts) == 0 {
		return b.stmt.opts
	}
	merged := make([]Option, 0, len(b.stmt.opts)+len(opts))
	merged = append(merged, b.stmt.opts...)
	return append(merged, opts...)
}
