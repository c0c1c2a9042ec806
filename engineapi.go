package fastframe

import (
	"container/list"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"fastframe/internal/blockstore"
	"fastframe/internal/exec"
	"fastframe/internal/sql"
)

// Engine is the session-level entry point to FastFrame: it owns a
// registry of named tables and a δ error budget shared by every query
// of the session, and executes queries written as SQL text. An Engine
// is safe for concurrent use; queries running on different goroutines
// proceed independently (tables are immutable).
//
//	eng := fastframe.NewEngine(fastframe.WithSessionBudget(1e-12, 1000))
//	eng.Register("flights", tab)
//	res, err := eng.Query(ctx,
//	    "SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD' WITHIN 5%")
//
// The SQL subset understood by Query is
//
//	SELECT agg [, agg ...]        agg: AVG(expr) | SUM(expr) | COUNT(*) |
//	                                   MEDIAN(expr) | PERCENTILE(expr, p) |
//	                                   VAR(expr) | STDDEV(expr) |
//	                                   COUNT(DISTINCT col)
//	FROM table
//	[JOIN dim ON parent.col = dim.key ...]
//	[WHERE pred AND pred AND ...]
//	[GROUP BY col, ...]
//	[HAVING AGG(c) > v | HAVING AGG(c) < v]
//	[ORDER BY AGG(c) [ASC|DESC] [LIMIT k]]
//	[WITHIN p% | WITHIN ABS eps | EXACT]
//
// where expr is arithmetic over continuous columns (+, -, *, unary
// minus, ABS(...), parentheses; its bounds are derived from the
// catalog) and pred is col = 'v', col IN ('a','b'), col > x (also >=,
// <, <=), col BETWEEN lo AND hi, or, over a JOINed dimension,
// dim.attr = 'v', dim.attr != 'v' (or <>) and dim.attr IN ('a','b').
// A JOIN names a dimension registered with RegisterDimension and linked
// with AttachDimension: parent.col is a fact foreign-key column (a star
// arm) or an earlier dimension's attribute (a snowflake chain);
// dimension predicates compile to a fact-side IN over the matching
// keys. Every value position takes a '?' parameter (see Prepare).
//
// The tail clauses select the paper's stopping conditions: HAVING stops
// once every group's CI excludes the threshold (the result then
// partitions w.h.p. via DecidedAbove and DecidedBelow); ORDER BY ...
// LIMIT k stops once the top-k (DESC) or bottom-k (ASC) groups
// separate; ORDER BY without LIMIT stops once all groups are totally
// ordered; WITHIN stops at a relative or absolute CI-width target,
// watching every selected aggregate; EXACT (or no tail clause) scans
// everything and returns exact answers. A trailing PARALLEL n (or
// PARALLEL ?) still parses, for statements written against older
// releases, and does nothing.
type Engine struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	dims    map[string]*Dimension        // dimension registry, by name
	attach  map[string]map[string]string // parent (table or dim) → column → dim name
	delta   float64                      // per-query δ drawn from the session budget
	budget  float64                      // total session δ (0 when untracked)
	spent   float64                      // union-bound δ consumed so far
	queries int
	plans   planCache // compiled-statement cache keyed by SQL text
}

// DefaultPlanCacheSize is the number of compiled statements Engine
// keeps per session (least-recently-used eviction) unless overridden
// with WithPlanCacheSize.
const DefaultPlanCacheSize = 256

// planCache is an LRU cache of prepared statement templates keyed by
// the exact SQL text. Engine.Query and Engine.Prepare both consult it,
// so repeated traffic — one-shot or prepared — skips the lexer, parser
// and planner entirely after the first occurrence of a statement.
type planCache struct {
	mu           sync.Mutex
	cap          int
	ll           *list.List // front = most recently used; elements hold *planEntry
	m            map[string]*list.Element
	hits, misses int
}

type planEntry struct {
	key  string
	tmpl *sql.Template
}

func (c *planCache) init(capacity int) {
	c.cap = capacity
	c.ll = list.New()
	c.m = make(map[string]*list.Element)
}

func (c *planCache) get(key string) *sql.Template {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*planEntry).tmpl
	}
	c.misses++
	return nil
}

func (c *planCache) put(key string, tmpl *sql.Template) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*planEntry).tmpl = tmpl
		return
	}
	c.m[key] = c.ll.PushFront(&planEntry{key: key, tmpl: tmpl})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*planEntry).key)
	}
}

func (c *planCache) stats() (hits, misses, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}

// EngineOption configures an Engine at construction.
type EngineOption func(*Engine)

// NewEngine returns an empty engine. Without WithSessionBudget every
// query gets the paper's per-query default δ = 1e−15, which keeps any
// practical session effectively deterministic without adjustment
// (§4.1).
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{
		tables: make(map[string]*Table),
		dims:   make(map[string]*Dimension),
		attach: make(map[string]map[string]string),
		delta:  exec.DefaultDelta,
	}
	e.plans.init(DefaultPlanCacheSize)
	for _, o := range opts {
		o(e)
	}
	return e
}

// WithSessionBudget caps the probability that ANY query of the session
// errs at total, sized for the given number of queries: each query
// runs with δ = SessionDelta(total, queries) = total/queries, the
// union-bound split of §4.1. Queries beyond the sizing keep the same
// per-query δ; SessionError reports the (growing) union bound
// actually accumulated.
func WithSessionBudget(total float64, queries int) EngineOption {
	return func(e *Engine) {
		e.budget = total
		e.delta = SessionDelta(total, queries)
	}
}

// WithQueryDelta fixes the per-query δ directly instead of deriving it
// from a budget; like WithDelta's, it must lie in [0, 1).
func WithQueryDelta(delta float64) EngineOption {
	return func(e *Engine) { e.delta = delta }
}

// WithPlanCacheSize sets how many compiled statements the engine
// caches (default DefaultPlanCacheSize, LRU eviction); n ≤ 0 disables
// the cache, so every Query/Prepare re-parses its SQL text.
func WithPlanCacheSize(n int) EngineOption {
	return func(e *Engine) { e.plans.init(n) }
}

// Register adds a table to the engine under a name usable in FROM
// clauses. Registering an existing name replaces the table. For
// out-of-core tables the registered name becomes the store's label, so
// storage errors and fault stats identify the table as queries know it
// rather than by file path.
func (e *Engine) Register(name string, t *Table) error {
	if name == "" {
		return fmt.Errorf("fastframe: table name must be non-empty")
	}
	if t == nil {
		return fmt.Errorf("fastframe: table %q is nil", name)
	}
	t.t.SetLabel(name)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tables[name] = t
	return nil
}

// Table returns a registered table.
func (e *Engine) Table(name string) (*Table, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.lookupLocked(name)
}

func (e *Engine) lookupLocked(name string) (*Table, error) {
	if t, ok := e.tables[name]; ok {
		return t, nil
	}
	names := e.namesLocked()
	if len(names) == 0 {
		return nil, fmt.Errorf("fastframe: unknown table %q (no tables registered)", name)
	}
	return nil, fmt.Errorf("fastframe: unknown table %q (registered: %v)", name, names)
}

func (e *Engine) namesLocked() []string {
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Tables returns the registered table names, sorted.
func (e *Engine) Tables() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.namesLocked()
}

// RegisterDimension adds a dimension table to the engine under a name
// usable in JOIN clauses. Registering an existing name replaces the
// dimension; like table replacement, the new contents are picked up at
// the next run of any statement — including statements already held by
// the plan cache or prepared as a Stmt, since dimension predicates
// resolve at bind time, not compile time. Register fully-built
// dimensions: the engine reads them without locking during queries.
func (e *Engine) RegisterDimension(name string, d *Dimension) error {
	if name == "" {
		return fmt.Errorf("fastframe: dimension name must be non-empty")
	}
	if d == nil {
		return fmt.Errorf("fastframe: dimension %q is nil", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.dims[name] = d
	return nil
}

// AttachDimension declares that parent's column holds the keys of the
// named dimension, enabling "JOIN dimName ON parent.column =
// dimName.key" in SQL. parent is a fact table name (a star arm: column
// is a categorical foreign-key column) or another dimension's name (a
// snowflake chain: column is an attribute of that dimension). The
// dimension must already be registered; the parent may be registered
// or replaced later — the linkage is validated when a joining
// statement runs. Re-attaching a column replaces the linkage.
func (e *Engine) AttachDimension(parent, column, dimName string) error {
	if parent == "" || column == "" {
		return fmt.Errorf("fastframe: AttachDimension needs a parent and a column")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.dims[dimName]; !ok {
		return fmt.Errorf("fastframe: unknown dimension %q (RegisterDimension first)", dimName)
	}
	cols := e.attach[parent]
	if cols == nil {
		cols = make(map[string]string)
		e.attach[parent] = cols
	}
	cols[column] = dimName
	return nil
}

// Dimensions returns the registered dimension names, sorted.
func (e *Engine) Dimensions() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.dims))
	for n := range e.dims {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resolveJoins compiles a statement's JOIN clauses and dimension
// predicates into fact-side IN atoms against the engine's CURRENT
// dimension registry — the bind-time counterpart of FROM-table
// resolution, so re-registered dimensions take effect on the next run
// even for cached plans and prepared statements. Joins are processed
// children-first: a snowflake child's key set is one more IN predicate
// over the parent attribute that holds it. Each star arm then extends
// the fact predicate with an IN atom over its foreign-key column.
// Scanning under that atom is still a uniform sample of the join view,
// so the (1−δ) guarantee and block pruning carry over unchanged (the
// paper's §Extensibility).
func (e *Engine) resolveJoins(t *Table, c sql.Compiled) (sql.Compiled, error) {
	if len(c.Joins) == 0 {
		return c, nil
	}
	e.mu.RLock()
	dims := make(map[string]*Dimension, len(c.Joins))
	attach := make(map[string]string, len(c.Joins))
	var missing []string
	for _, j := range c.Joins {
		if d, ok := e.dims[j.Dim]; ok {
			dims[j.Dim] = d
		} else {
			missing = append(missing, j.Dim)
		}
		if dim, ok := e.attach[j.Parent][j.ParentColumn]; ok {
			attach[j.Parent+"."+j.ParentColumn] = dim
		}
	}
	registered := make([]string, 0, len(e.dims))
	for n := range e.dims {
		registered = append(registered, n)
	}
	e.mu.RUnlock()

	if len(missing) > 0 {
		sort.Strings(registered)
		return c, fmt.Errorf("fastframe: unknown dimension %q (registered: %v)", missing[0], registered)
	}

	// Children before parents: joins are in statement order and a
	// parent always precedes its children (the parser enforces it), so
	// the reverse walk has every child's key set ready when its parent
	// folds it in.
	keys := make(map[string][]string, len(c.Joins))
	for i := len(c.Joins) - 1; i >= 0; i-- {
		j := c.Joins[i]
		if dim := attach[j.Parent+"."+j.ParentColumn]; dim != j.Dim {
			return c, fmt.Errorf("fastframe: no dimension %q attached to %s.%s (declare the linkage with AttachDimension(%q, %q, %q))",
				j.Dim, j.Parent, j.ParentColumn, j.Parent, j.ParentColumn, j.Dim)
		}
		var preds []sql.DimPred
		for _, dp := range c.DimPreds {
			if dp.Dim == j.Dim {
				preds = append(preds, dp)
			}
		}
		for _, child := range c.Joins[i+1:] {
			if child.Parent == j.Dim {
				preds = append(preds, sql.DimPred{Dim: j.Dim, Attr: child.ParentColumn, Op: sql.PredIn, Values: keys[child.Dim]})
			}
		}
		ks, err := dims[j.Dim].keysMatching(preds)
		if err != nil {
			return c, fmt.Errorf("fastframe: JOIN %s: %w", j.Dim, err)
		}
		keys[j.Dim] = ks
	}

	// Star arms extend the fact predicate in statement order.
	pred := c.Query.Pred
	for _, j := range c.Joins {
		if j.Parent != c.Table {
			continue
		}
		if _, err := t.t.Cat(j.ParentColumn); err != nil {
			return c, fmt.Errorf("fastframe: JOIN %s: fact foreign key: %w", j.Dim, err)
		}
		pred = pred.AndCatIn(j.ParentColumn, keys[j.Dim]...)
	}
	c.Query.Pred = pred
	return c, nil
}

// template resolves SQL text to a prepared-statement template via the
// plan cache: a hit skips the lexer, parser and planner entirely.
func (e *Engine) template(sqlText string) (*sql.Template, error) {
	if t := e.plans.get(sqlText); t != nil {
		return t, nil
	}
	t, err := sql.Prepare(sqlText)
	if err != nil {
		return nil, err
	}
	e.plans.put(sqlText, t)
	return t, nil
}

// recordRun is the one place session accounting happens. The rule: a
// query is counted in QueriesRun if and only if it produced a result —
// complete, exhausted, and aborted-with-partial-intervals runs alike;
// a run that failed before producing a result counts nothing. The δ
// budget is additionally charged for approximate results only: an
// approximate answer spends the error probability its intervals
// consumed even when the scan was aborted early (the partial intervals
// were still reported), while an exact answer is deterministic and
// δ-free.
func (e *Engine) recordRun(delta float64, exact bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.queries++
	if exact {
		return
	}
	if delta <= 0 {
		delta = exec.DefaultDelta
	}
	e.spent += delta
}

// settings resolves the per-run configuration: the session δ, then
// explicit options.
func (e *Engine) settings(opts []Option) runSettings {
	e.mu.RLock()
	s := runSettings{delta: e.delta}
	e.mu.RUnlock()
	s.apply(opts)
	return s
}

// run executes one bound, planned statement approximately.
func (e *Engine) run(ctx context.Context, c sql.Compiled, opts []Option) (*Result, error) {
	t, err := e.Table(c.Table)
	if err != nil {
		return nil, err
	}
	if c, err = e.resolveJoins(t, c); err != nil {
		return nil, err
	}
	s := e.settings(opts)
	res, err := t.runQuery(ctx, c.Query, s)
	if err != nil {
		return nil, err
	}
	e.recordRun(s.delta, false)
	return res, nil
}

// runExact executes one bound, planned statement exactly, ignoring its
// tail stopping clause.
func (e *Engine) runExact(ctx context.Context, c sql.Compiled) (*ExactResult, error) {
	t, err := e.Table(c.Table)
	if err != nil {
		return nil, err
	}
	if c, err = e.resolveJoins(t, c); err != nil {
		return nil, err
	}
	res, err := t.QueryExact(ctx, QueryBuilder{q: c.Query})
	if err != nil {
		return nil, err
	}
	e.recordRun(0, true)
	return res, nil
}

// stream starts one bound, planned statement as a pull-based cursor.
func (e *Engine) streamRun(ctx context.Context, c sql.Compiled, opts []Option) (*Rows, error) {
	t, err := e.Table(c.Table)
	if err != nil {
		return nil, err
	}
	if c, err = e.resolveJoins(t, c); err != nil {
		return nil, err
	}
	s := e.settings(opts)
	return t.stream(ctx, c.Query, s, func(res *Result, err error) {
		if err == nil {
			e.recordRun(s.delta, false)
		}
	}), nil
}

// bindText resolves SQL text through the plan cache and binds it with
// no arguments, rejecting parameterized statements with a hint toward
// Prepare.
func (e *Engine) bindText(sqlText string) (sql.Compiled, error) {
	tmpl, err := e.template(sqlText)
	if err != nil {
		return sql.Compiled{}, err
	}
	if n := tmpl.NumParams(); n > 0 {
		return sql.Compiled{}, fmt.Errorf("fastframe: query has %d parameter placeholder(s) '?'; use Engine.Prepare and bind arguments", n)
	}
	return tmpl.Bind()
}

// Query compiles and executes one SQL query. Compilation goes through
// the engine's plan cache, so repeated query texts skip parsing and
// planning entirely (prepare explicitly with Engine.Prepare to also
// bind '?' parameters). The query draws its error probability from the
// session budget (override per query with WithDelta); the context is
// checked at every interval-recomputation round, and cancellation or
// an expired deadline returns the partial Result with Aborted set —
// its intervals remain valid CIs at the point the scan stopped.
func (e *Engine) Query(ctx context.Context, sqlText string, opts ...Option) (*Result, error) {
	c, err := e.bindText(sqlText)
	if err != nil {
		return nil, err
	}
	return e.run(ctx, c, opts)
}

// QueryExact compiles the SQL query and evaluates it exactly — the
// ground truth the approximate answer converges to, computed by the same
// engine run to exhaustion (see Table.QueryExact, also for where the
// context is checked: cancellation returns ctx.Err(), never a partial
// answer). The tail stopping clause and the options are ignored. An
// exact query counts toward QueriesRun but — being deterministic —
// charges nothing to the session δ budget (see recordRun for the full
// accounting rule).
func (e *Engine) QueryExact(ctx context.Context, sqlText string, _ ...Option) (*ExactResult, error) {
	c, err := e.bindText(sqlText)
	if err != nil {
		return nil, err
	}
	return e.runExact(ctx, c)
}

// Stream compiles one SQL query and starts it as a pull-based cursor
// over per-round interval snapshots — see Rows. For parameterized
// statements use Engine.Prepare and Stmt.Stream.
func (e *Engine) Stream(ctx context.Context, sqlText string, opts ...Option) (*Rows, error) {
	c, err := e.bindText(sqlText)
	if err != nil {
		return nil, err
	}
	return e.streamRun(ctx, c, opts)
}

// Explain compiles the SQL query (through the plan cache) and returns
// the full logical plan rendering without executing it: aggregate,
// table, joins, predicates, grouping, the stopping rule the tail
// clause compiles to, and any '?' parameter slots. For a parameterless
// statement with JOIN clauses the rendering additionally shows the
// bind-time join compilation against the current registry — each
// fact-side IN atom with its key-set size; for parameterized
// statements, bind first (Stmt.Bind) and use BoundStmt.Explain to see
// the compiled key sets.
func (e *Engine) Explain(sqlText string) (string, error) {
	tmpl, err := e.template(sqlText)
	if err != nil {
		return "", err
	}
	plan := tmpl.Explain()
	if tmpl.NumParams() == 0 {
		if c, err := tmpl.Bind(); err == nil {
			plan += e.explainJoins(c)
			plan += e.explainScanPrune(c)
		}
	}
	return plan, nil
}

// explainScanPrune renders the static block-pruning prospect of a bound
// statement's WHERE clause against the registered FROM table: one line
// per float-range atom showing its zone-map prunability, and a summary
// line for the combined mask (categorical bitmaps ∧ IN unions ∧ zone
// maps) — how much of the scramble the scan rules out before fetching a
// single block. Resolution failures render nothing: the logical plan is
// still valid, only the current registry cannot quantify it.
func (e *Engine) explainScanPrune(c sql.Compiled) string {
	t, err := e.Table(c.Table)
	if err != nil {
		return ""
	}
	if resolved, err := e.resolveJoins(t, c); err == nil {
		c = resolved
	}
	st, err := exec.PredicateScanStats(t.t, c.Query.Pred)
	if err != nil {
		return ""
	}
	var b strings.Builder
	for _, r := range st.Ranges {
		fmt.Fprintf(&b, "\n  PRUNE %s (zone map)", r)
	}
	switch {
	case st.Empty:
		fmt.Fprintf(&b, "\n  PRUNE scan: 0 of %d blocks possible — provably empty view", st.NumBlocks)
	case st.Masked:
		fmt.Fprintf(&b, "\n  PRUNE scan: %d of %d blocks possible", st.Possible, st.NumBlocks)
	}
	return b.String()
}

// explainJoins renders the bind-time join compilation of a bound
// statement: one line per star arm with the fact-side IN atom's
// key-set size. An empty key set — which no SQL surface syntax can
// spell as "IN ()" — renders as the provably empty view it compiles
// to. Resolution failures render as a note instead of failing the
// explain: the plan itself is still valid, only the current registry
// cannot satisfy it.
func (e *Engine) explainJoins(c sql.Compiled) string {
	if len(c.Joins) == 0 {
		return ""
	}
	t, err := e.Table(c.Table)
	if err != nil {
		return fmt.Sprintf("\n  COMPILE JOIN: unresolved (%v)", err)
	}
	before := len(c.Query.Pred.CatIn)
	resolved, err := e.resolveJoins(t, c)
	if err != nil {
		return fmt.Sprintf("\n  COMPILE JOIN: unresolved (%v)", err)
	}
	var b strings.Builder
	atoms := resolved.Query.Pred.CatIn[before:]
	i := 0
	for _, j := range c.Joins {
		if j.Parent != c.Table || i >= len(atoms) {
			continue
		}
		atom := atoms[i]
		i++
		if len(atom.Values) == 0 {
			fmt.Fprintf(&b, "\n  COMPILE JOIN %s → %s IN ∅ — provably empty view, resolved without fetching any block", j.Dim, atom.Column)
			continue
		}
		fmt.Fprintf(&b, "\n  COMPILE JOIN %s → %s IN %d key(s): %s", j.Dim, atom.Column, len(atom.Values), previewKeys(atom.Values))
	}
	return b.String()
}

// previewKeys renders a key set for explain output, eliding long sets.
func previewKeys(keys []string) string {
	const max = 8
	if len(keys) <= max {
		return strings.Join(keys, ", ")
	}
	return strings.Join(keys[:max], ", ") + fmt.Sprintf(", … (%d more)", len(keys)-max)
}

// PoolStats aggregates the buffer-pool counters of every registered
// out-of-core table. Tables sharing one pool are counted once; budgets
// and usage sum across distinct pools. All-resident engines report zero
// stats.
func (e *Engine) PoolStats() PoolStats {
	e.mu.RLock()
	seen := make(map[*Table]bool, len(e.tables))
	tabs := make([]*Table, 0, len(e.tables))
	for _, t := range e.tables {
		if !seen[t] {
			seen[t] = true
			tabs = append(tabs, t)
		}
	}
	e.mu.RUnlock()
	var out PoolStats
	seenPools := map[*blockstore.Pool]bool{}
	for _, t := range tabs {
		p := t.t.Pool()
		if p == nil || seenPools[p] {
			continue
		}
		seenPools[p] = true
		s := t.PoolStats()
		out.BudgetBytes += s.BudgetBytes
		out.UsedBytes += s.UsedBytes
		out.PinnedFrames += s.PinnedFrames
		out.Hits += s.Hits
		out.Misses += s.Misses
		out.Evictions += s.Evictions
		out.BytesRead += s.BytesRead
		out.IOErrors += s.IOErrors
		out.ChecksumFailures += s.ChecksumFailures
		out.Retries += s.Retries
		out.QuarantinedBlocks += s.QuarantinedBlocks
	}
	return out
}

// StorageStats reports the per-table storage fault counters of every
// registered out-of-core table, sorted by table name. Resident tables
// have no storage to fail and are omitted; tables registered under
// several names report once per name (the label carries the most
// recently registered name).
func (e *Engine) StorageStats() []TableStorageStats {
	e.mu.RLock()
	names := e.namesLocked()
	tabs := make([]*Table, len(names))
	for i, n := range names {
		tabs[i] = e.tables[n]
	}
	e.mu.RUnlock()
	var out []TableStorageStats
	for i, t := range tabs {
		s := t.t.Store()
		if s == nil {
			continue
		}
		fs := s.FaultStats()
		out = append(out, TableStorageStats{
			Table:             names[i],
			Version:           blockstore.Version,
			IOErrors:          fs.IOErrors,
			ChecksumFailures:  fs.ChecksumFailures,
			Retries:           fs.Retries,
			QuarantinedBlocks: fs.QuarantinedBlocks,
			LastFaultUnixNano: fs.LastFaultUnixNano,
		})
	}
	return out
}

// PlanCacheStats reports the plan cache's lifetime hit/miss counters
// and current size.
func (e *Engine) PlanCacheStats() (hits, misses, size int) {
	return e.plans.stats()
}

// QueriesRun returns the number of queries issued through the engine.
func (e *Engine) QueriesRun() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.queries
}

// SessionError returns the union-bound probability that any query of
// the session so far erred — the sum of the per-query δs actually
// used. While it stays at or below the WithSessionBudget total, every
// answer the session has produced is simultaneously correct with
// probability at least 1 − total.
func (e *Engine) SessionError() float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.spent
}

// SessionBudget returns the total session δ configured with
// WithSessionBudget (0 when untracked) and the per-query δ in use.
func (e *Engine) SessionBudget() (total, perQuery float64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.budget, e.delta
}
