// Package ffdriver exposes a FastFrame Engine through the standard
// database/sql interface, so any stdlib-compatible tool can issue
// approximate queries — prepared statements, '?' parameters and all —
// against a scramble:
//
//	eng := fastframe.NewEngine()
//	eng.Register("flights", tab)
//	db := ffdriver.OpenDB(eng) // or RegisterEngine + sql.Open("fastframe", name)
//
//	rows, err := db.Query(
//	    "SELECT AVG(DepDelay) FROM flights WHERE Origin = ? GROUP BY Airline WITHIN ABS ?",
//	    "ORD", 0.5)
//
// Star/snowflake JOINs work through the driver too — register
// dimensions on the engine (RegisterDimension + AttachDimension) and
// query the join view, with '?' parameters in dimension predicates:
//
//	rows, err := db.Query(
//	    "SELECT AVG(DepDelay) FROM flights JOIN airports ON flights.Origin = airports.key"+
//	        " WHERE airports.region = ? GROUP BY DayOfWeek WITHIN 5%", "west")
//
// Each result row is one group of the approximate answer:
//
//	group_key  string   GROUP BY key ("" for ungrouped queries)
//	estimate   float64  the point estimate of the query's aggregate
//	ci_lo      float64  lower confidence bound (true value ≥ ci_lo w.h.p.)
//	ci_hi      float64  upper confidence bound
//	samples    int64    view rows that contributed to the estimate
//	exact      bool     whole view observed (the interval is a point)
//	aborted    bool     the scan was cut short (cancellation/deadline/
//	                    MaxRows) before the stopping rule fired; the
//	                    intervals are valid but may be wider than the
//	                    query's WITHIN/HAVING target requested
//	degraded   bool     quarantined storage blocks were skipped under
//	                    degraded reads; the intervals remain valid but
//	                    charge the unread rows at their worst case
//
// The estimate/ci_lo/ci_hi columns repeat once per SELECT-list
// aggregate. A list of N > 1 ("SELECT AVG(x), MEDIAN(x), ...") suffixes
// them with the 1-based list position:
//
//	group_key, estimate_1, ci_lo_1, ci_hi_1, ..., estimate_N, ci_lo_N,
//	ci_hi_N, samples, exact, aborted, degraded
//
// The driver is read-only: Exec and transactions are rejected.
// database/sql's Prepare maps onto Engine.Prepare (compile once, bind
// per run) and one-shot Query goes through the engine's plan cache, so
// repeated statements skip SQL parsing either way. Contexts cancel at
// interval-recomputation rounds; a cancelled approximate query
// surfaces the valid partial result rather than an error, exactly like
// Engine.Query — check the aborted column to distinguish it from a
// converged answer.
package ffdriver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"sync"

	"fastframe"
)

// DriverName is the name this package registers with database/sql.
const DriverName = "fastframe"

func init() { sql.Register(DriverName, Driver{}) }

var (
	errReadOnly = errors.New("ffdriver: the engine is read-only (SELECT only); Exec is not supported")
	errNoTx     = errors.New("ffdriver: transactions are not supported (tables are immutable scrambles)")

	regMu sync.RWMutex
	reg   = map[string]*fastframe.Engine{}
)

// RegisterEngine publishes an engine under a DSN name, making it
// reachable as sql.Open("fastframe", name). Registering an existing
// name replaces the engine. For a registry-free handle, use OpenDB.
func RegisterEngine(name string, eng *fastframe.Engine) {
	regMu.Lock()
	defer regMu.Unlock()
	reg[name] = eng
}

// OpenDB wraps an engine in a *sql.DB directly, bypassing the DSN
// registry.
func OpenDB(eng *fastframe.Engine) *sql.DB {
	return sql.OpenDB(connector{eng: eng})
}

// Driver is the database/sql/driver implementation; the DSN is a name
// previously published with RegisterEngine.
type Driver struct{}

// Open connects to a registered engine.
func (d Driver) Open(name string) (driver.Conn, error) {
	c, err := d.OpenConnector(name)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background())
}

// OpenConnector resolves the DSN against the engine registry.
func (Driver) OpenConnector(name string) (driver.Connector, error) {
	regMu.RLock()
	eng, ok := reg[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("ffdriver: no engine registered under %q (call ffdriver.RegisterEngine first, or use ffdriver.OpenDB)", name)
	}
	return connector{eng: eng}, nil
}

type connector struct{ eng *fastframe.Engine }

func (c connector) Connect(context.Context) (driver.Conn, error) { return &conn{eng: c.eng}, nil }
func (c connector) Driver() driver.Driver                        { return Driver{} }

// conn is one database/sql connection. The engine is safe for
// concurrent use, so connections are stateless handles.
type conn struct{ eng *fastframe.Engine }

func (c *conn) Prepare(query string) (driver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

func (c *conn) PrepareContext(_ context.Context, query string) (driver.Stmt, error) {
	st, err := c.eng.Prepare(query)
	if err != nil {
		return nil, err
	}
	return &stmt{st: st}, nil
}

func (c *conn) Close() error              { return nil }
func (c *conn) Begin() (driver.Tx, error) { return nil, errNoTx }

func (c *conn) BeginTx(context.Context, driver.TxOptions) (driver.Tx, error) {
	return nil, errNoTx
}

// QueryContext handles one-shot queries without an explicit prepare;
// the engine's plan cache supplies the statement reuse.
func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	st, err := c.eng.Prepare(query)
	if err != nil {
		return nil, err
	}
	return runStmt(ctx, st, args)
}

func (c *conn) ExecContext(context.Context, string, []driver.NamedValue) (driver.Result, error) {
	return nil, errReadOnly
}

// stmt adapts a prepared fastframe.Stmt.
type stmt struct{ st *fastframe.Stmt }

func (s *stmt) Close() error  { return nil }
func (s *stmt) NumInput() int { return s.st.NumParams() }

func (s *stmt) Exec([]driver.Value) (driver.Result, error) { return nil, errReadOnly }

func (s *stmt) ExecContext(context.Context, []driver.NamedValue) (driver.Result, error) {
	return nil, errReadOnly
}

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	named := make([]driver.NamedValue, len(args))
	for i, v := range args {
		named[i] = driver.NamedValue{Ordinal: i + 1, Value: v}
	}
	return runStmt(context.Background(), s.st, named)
}

func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	return runStmt(ctx, s.st, args)
}

// runStmt binds database/sql arguments onto the statement's '?' slots
// and runs it, emitting one row per group of the final result.
func runStmt(ctx context.Context, st *fastframe.Stmt, args []driver.NamedValue) (driver.Rows, error) {
	vals := make([]any, len(args))
	for _, a := range args {
		if a.Name != "" {
			return nil, fmt.Errorf("ffdriver: named parameter %q is not supported; use positional '?'", a.Name)
		}
		if a.Ordinal < 1 || a.Ordinal > len(args) {
			return nil, fmt.Errorf("ffdriver: argument ordinal %d out of range", a.Ordinal)
		}
		vals[a.Ordinal-1] = a.Value
	}
	res, err := st.Query(ctx, vals...)
	if err != nil {
		return nil, err
	}
	return &rows{
		n:        len(res.Aggs),
		groups:   res.Groups,
		aborted:  res.Aborted,
		degraded: res.Degraded,
	}, nil
}

// rows iterates the groups of one approximate Result.
type rows struct {
	n        int // SELECT-list length
	groups   []fastframe.GroupResult
	aborted  bool
	degraded bool
	i        int
}

// Columns names estimate, ci_lo and ci_hi once per SELECT-list
// aggregate, suffixed _1.._n — unsuffixed when the list has one entry.
func (r *rows) Columns() []string {
	cols := make([]string, 0, 5+3*r.n)
	cols = append(cols, "group_key")
	for k := 1; k <= r.n; k++ {
		suffix := ""
		if r.n > 1 {
			suffix = fmt.Sprintf("_%d", k)
		}
		cols = append(cols, "estimate"+suffix, "ci_lo"+suffix, "ci_hi"+suffix)
	}
	return append(cols, "samples", "exact", "aborted", "degraded")
}

func (r *rows) Close() error { return nil }

func (r *rows) Next(dest []driver.Value) error {
	if r.i >= len(r.groups) {
		return io.EOF
	}
	g := r.groups[r.i]
	r.i++
	dest[0] = g.Key
	d := 1
	for _, iv := range g.Answers {
		dest[d], dest[d+1], dest[d+2] = iv.Estimate, iv.Lo, iv.Hi
		d += 3
	}
	dest[d] = int64(g.Samples)
	dest[d+1] = g.Exact
	dest[d+2] = r.aborted
	dest[d+3] = r.degraded
	return nil
}
