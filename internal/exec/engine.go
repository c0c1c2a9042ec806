package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"

	"fastframe/internal/blockstore"
	"fastframe/internal/core"
	"fastframe/internal/expr"
	"fastframe/internal/query"
	"fastframe/internal/scramble"
	"fastframe/internal/table"
)

// Run executes an approximate aggregate query against a scramble and
// returns per-view confidence intervals satisfying the query's total
// error budget (Options.Delta), terminating as early as the stopping
// condition allows.
func Run(t *table.Table, q query.Query, opts Options) (*Result, error) {
	return RunContext(context.Background(), t, q, opts)
}

// RunContext is Run with cancellation: the context is checked at every
// round boundary, and a cancelled or expired context ends the scan via
// the same path as an OnRound abort — the partial Result is returned
// with Aborted set and its intervals remain valid (1−δ) CIs at the
// point the scan stopped, by the optional-stopping construction. A
// context that is already done before any work starts returns ctx.Err()
// instead.
func RunContext(ctx context.Context, t *table.Table, q query.Query, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.Bounder == nil {
		return nil, errors.New("exec: Options.Bounder is required")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if nb := t.Layout().NumBlocks(); opts.Rng != nil && nb > 0 {
		opts.StartBlock = opts.Rng.IntN(nb)
	}
	e, err := newEngine(t, q, opts)
	if err != nil {
		return nil, err
	}
	e.ctx = ctx
	// Release the extents the scan holds however it ends, a kernel,
	// bounder or OnRound panic on its way to the caller included.
	defer e.releaseViews()
	start := time.Now()
	for !e.done {
		e.advance()
	}
	if e.ioErr != nil {
		return nil, e.ioErr
	}
	res := e.result()
	res.Duration = time.Since(start)
	return res, nil
}

type engine struct {
	q    query.Query
	opts Options
	ctx  context.Context

	// The SELECT list, resolved against the colSet: inputs is the
	// deduplicated set of per-row values the scan gathers (each float
	// column, expression kernel, categorical code stream, or derived
	// square read/computed once per span regardless of how many
	// aggregates consume it), and aggs describes each aggregate of the
	// list — its kind, which inputs feed it, and its catalog bounds.
	inputs []inputSpec
	aggs   []aggSpec

	pred *compiledPred
	grp  *grouper
	cfg  roundConfig

	// acc is the scan's bound views, span buffer and the counters of the
	// span being scanned. spanMax is the longest span in blocks (see
	// spanLen).
	acc     *roundAccum
	spanMax int

	// cols is the deduplicated set of columns this query touches. ioErr
	// records the first out-of-core read failure; the scan aborts on it
	// and surfaces it instead of a Result — unless Options.DegradedReads
	// is set, in which case quarantined blocks are skipped with their
	// rows left unobserved (degraded/quarantined track that) and only
	// non-block errors abort.
	cols        *colSet
	ioErr       error
	degraded    bool
	quarantined int

	layout scramble.Layout
	cursor *scramble.Cursor

	// states is indexed by dense group ID (every potential group is
	// instantiated upfront, so a slice beats a map on the per-row path).
	states   []*groupState
	ordered  []*groupState // same states in ID order, for iteration
	observed []*groupState // the states with support, in key order (snapshotGroups)

	// coverage accounting: coveredAll counts rows whose membership is
	// known for every view (fetched rows and predicate-pruned rows);
	// rows in blocks skipped by active scanning are credited only to the
	// groups that were active (groupState.extra).
	coveredAll   int
	totalCovered int

	looks     core.Looks // where the next look closes, and on which share of deltaAgg
	deltaAgg  float64    // one aggregate of one view's error budget, all looks together
	numActive int
	stopped   bool
	aborted   bool
	done      bool // advance has nothing left to do: stopped, capped, exhausted or failed

	stopScr stopScratch // refreshActive's reusable sort buffers
}

// scalarKernel forces the row-at-a-time reference interpreter in place
// of the vectorized span kernel. It exists for the kernel-equivalence
// property tests, which pin the two paths byte-identical; only tests
// set it, before any engine runs.
var scalarKernel = false

// addInput appends an input to the deduplicated gather list, reusing an
// existing entry when an identical one is already gathered (kernels are
// never deduplicated — closures aren't comparable — but column, code,
// constant, and square inputs are).
func (e *engine) addInput(spec inputSpec) int {
	if spec.kind != inKernel {
		for i, s := range e.inputs {
			if s.kind == spec.kind && s.slot == spec.slot && s.src == spec.src {
				return i
			}
		}
	}
	e.inputs = append(e.inputs, spec)
	return len(e.inputs) - 1
}

// squareBounds returns catalog bounds for x² given x ∈ [a, b].
func squareBounds(a, b float64) (float64, float64) {
	hi := math.Max(a*a, b*b)
	if a <= 0 && b >= 0 {
		return 0, hi
	}
	return math.Min(a*a, b*b), hi
}

// resolveAggs compiles the SELECT list: one aggSpec per aggregate,
// referencing deduplicated gather inputs.
func (e *engine) resolveAggs(t *table.Table, list []query.Aggregate) error {
	for _, a := range list {
		sp := aggSpec{kind: a.Kind, in2: -1, p: a.Quantile()}
		switch a.Kind {
		case query.Count:
			sp.in = e.addInput(inputSpec{kind: inOne})
		case query.CountDistinct:
			col, err := t.Cat(a.Column)
			if err != nil {
				return err
			}
			slot, err := e.cols.catSlot(a.Column)
			if err != nil {
				return err
			}
			sp.in = e.addInput(inputSpec{kind: inCatCode, slot: slot})
			sp.dictSize = col.NumValues()
		default:
			if a.Expr != nil {
				// Expression aggregate: compile a slot-indexed kernel and
				// derive range bounds from the referenced columns' catalog
				// bounds (Appendix B; always sound, corner-tight for
				// monotone/convex).
				kern, err := expr.CompileKernel(a.Expr, e.cols.floatSlot)
				if err != nil {
					return err
				}
				vars := map[string]bool{}
				a.Expr.Vars(vars)
				boxes := map[string]expr.Box{}
				for name := range vars {
					rb, err := t.Bounds(name)
					if err != nil {
						return err
					}
					boxes[name] = expr.Box{Lo: rb.A, Hi: rb.B}
				}
				box, err := expr.DeriveBounds(a.Expr, boxes)
				if err != nil {
					return err
				}
				sp.in = e.addInput(inputSpec{kind: inKernel, kernel: kern})
				sp.a, sp.b = box.Lo, box.Hi
			} else {
				slot, err := e.cols.floatSlot(a.Column)
				if err != nil {
					return err
				}
				rb, err := t.Bounds(a.Column)
				if err != nil {
					return err
				}
				sp.in = e.addInput(inputSpec{kind: inColumn, slot: slot})
				sp.a, sp.b = rb.A, rb.B
			}
			if a.Kind == query.Var || a.Kind == query.Stddev {
				sp.in2 = e.addInput(inputSpec{kind: inSquare, src: sp.in})
				sp.a2, sp.b2 = squareBounds(sp.a, sp.b)
			}
		}
		e.aggs = append(e.aggs, sp)
	}
	return nil
}

func newEngine(t *table.Table, q query.Query, opts Options) (*engine, error) {
	e := &engine{q: q, opts: opts, layout: t.Layout()}
	e.cols = newColSet(t)

	if err := e.resolveAggs(t, q.Aggs); err != nil {
		return nil, err
	}

	pred, err := compilePredicate(t, q.Pred, e.cols)
	if err != nil {
		return nil, err
	}
	e.pred = pred

	grp, err := newGrouper(t, q.GroupBy, e.cols)
	if err != nil {
		return nil, err
	}
	if grp.total > math.MaxInt32 {
		// Span buffers hold group IDs in int32 — and one state per
		// potential group is instantiated below, which 2³¹ would not fit.
		return nil, fmt.Errorf("exec: GROUP BY spans %d potential groups, more than 2³¹", grp.total)
	}
	e.grp = grp

	e.cfg.specs = e.aggs
	e.cfg.bigR = t.NumRows()
	e.cfg.knownN = pred.matchAll() && len(q.GroupBy) == 0
	e.cfg.alpha = opts.Alpha
	// Bonferroni: δ is split evenly over the views and, inside a view,
	// over the N aggregates of the SELECT list, so all reported intervals
	// hold jointly; the look schedule splits each share over the looks.
	e.deltaAgg = opts.Delta / float64(grp.numGroups()) / float64(len(e.aggs))

	// Instantiate every potential view upfront: the single global view
	// for ungrouped queries, or one view per dictionary combination for
	// GROUP BY queries. An unobserved group keeps its trivial [A, B]
	// interval and therefore blocks every stopping condition until it is
	// sampled or its view is provably empty (full coverage with zero
	// matches) — stopping over a provisional group set would risk the
	// subset errors (§1) the paper's guarantees exclude. Memory is O(G)
	// with G the product of the GROUP BY dictionary sizes.
	e.states = make([]*groupState, grp.numGroups())
	for id := range e.states {
		e.states[id] = newGroupState(id, grp.codesOf(id), opts.Bounder, e.aggs, e.cfg.bigR)
	}
	e.ordered = e.states

	e.cursor = scramble.NewCursor(e.layout, opts.StartBlock)
	e.looks = core.NewLooks(opts.RoundRows)
	e.numActive = len(e.ordered)

	// All slots are resolved: allocate the bound views and the span
	// buffer, sized to the longest span here and never inside the scan.
	e.spanMax = min(t.ExtentBlocks(), 64)
	e.acc = e.newAccum()
	return e, nil
}

// spanLen returns the length in blocks of the span advance takes next:
// the run from the cursor to the end of its extent (at
// most 64 blocks, so that a uint64 can name them), cut where the round
// closes, where MaxRows is reached and where the walk wraps or ends.
func (e *engine) spanLen() int {
	b := e.cursor.Peek()
	if b < 0 {
		return 0
	}
	target := e.looks.Next()
	if e.opts.MaxRows > 0 && e.opts.MaxRows < target {
		target = e.opts.MaxRows
	}
	bs := e.layout.BlockSize
	toTarget := max(1, (target-e.totalCovered+bs-1)/bs)
	return min(e.spanMax-b%e.spanMax, e.layout.NumBlocks()-b, e.cursor.Remaining(), toTarget)
}

// advance is the engine's one round loop, one iteration at a time: take
// the next span from the cursor (spanLen blocks), scan it, fold its
// coverage, and run the round-close, row-cap and exhaustion checks.
// Which blocks a round spans is a pure function of the layout (every
// visited block advances coverage by its row count whether fetched,
// pruned or skipped), and inside a round the fetch/skip decisions depend
// only on state frozen at the previous round barrier.
func (e *engine) advance() {
	n := e.spanLen()
	lo := e.cursor.Peek()
	e.cursor.Advance(n)
	e.totalCovered += e.layout.RowsIn(lo, n)
	closes := n > 0 && e.totalCovered >= e.looks.Next()
	capped := n > 0 && e.opts.MaxRows > 0 && e.totalCovered >= e.opts.MaxRows

	e.scanSpan(lo, n)
	if e.ioErr != nil {
		// Partial intervals over partially-read blocks have no (1−δ)
		// story: the scan ends here and surfaces the error.
		e.done = true
		return
	}
	if closes {
		// A round barrier can hold the scan for as long as an OnRound
		// consumer likes: no extent stays pinned across one.
		e.releaseViews()
		e.closeRound()
	}
	switch {
	case e.stopped, capped:
		e.done = true
	case e.cursor.Exhausted():
		// The scan walked the whole scramble: every still-active view
		// has been fully observed (blocks were only skipped when they
		// provably contained none of its rows), so its answer is exact.
		for _, gs := range e.ordered {
			if gs.covered(e.coveredAll) == e.cfg.bigR {
				gs.finalizeExact(e.aggs, e.cfg.bigR)
			}
		}
		e.done = true
	}
}

// releaseViews unpins the extents the scan holds: at a round barrier, and
// when the scan ends — whichever way it ended, a panic included. Safe to
// call more than once.
func (e *engine) releaseViews() { e.acc.views.release() }

// newAccum allocates the scan's views, selection vector and span buffer
// (see roundAccum), sized to the longest span and reused.
func (e *engine) newAccum() *roundAccum {
	rows := e.spanMax * e.layout.BlockSize
	w := &roundAccum{
		views:   e.cols.newViewSet(),
		sel:     make([]int32, 0, rows),
		vals:    make([][]float64, len(e.inputs)),
		starts:  make([]int32, 0, min(rows, len(e.states))+1),
		touched: make([]int32, 0, min(rows, len(e.states))),
	}
	for k := range w.vals {
		w.vals[k] = make([]float64, 0, rows)
	}
	if !e.grp.isGlobal() {
		w.gids = make([]int32, 0, rows)
		w.grouped = make([]int32, rows)
		w.count = make([]int32, len(e.states))
	}
	return w
}

// scanSpan scans blocks [lo, lo+n) on the calling goroutine and folds
// their coverage into the engine: the selected rows are partitioned by
// group and their inputs gathered in group order (scanBlocks), then each
// touched group observes its rows (replay) — exactly the update sequence
// of a row-at-a-time scan.
func (e *engine) scanSpan(lo, n int) {
	if n == 0 {
		return
	}
	// A read failure aborts the scan before counters fold or observations
	// replay: a partially-observed span must not move any bounder state.
	if e.ioErr = e.scanBlocks(lo, lo+n); e.ioErr != nil {
		return
	}
	e.fold()
	e.replay()
}

// replay feeds the buffered span to the group states: one observeRun per
// touched group.
func (e *engine) replay() {
	w := e.acc
	for i, gid := range w.touched {
		if gs := e.states[gid]; !gs.exact {
			gs.observeRun(e.aggs, w.vals, int(w.starts[i]), int(w.starts[i+1]))
		}
	}
}

// fold credits the span's coverage counters to the engine and clears
// them.
func (e *engine) fold() {
	w := e.acc
	e.coveredAll += w.coveredAll
	e.cursor.AddFetched(bits.OnesCount64(w.fetchedMask))
	if w.quarantined > 0 {
		e.degraded = true
		e.quarantined += w.quarantined
	}
	if w.skipped > 0 {
		// Blocks skipped by active scanning resolve membership only for
		// the groups that were active (flags change at round barriers,
		// never inside a span).
		for _, gs := range e.ordered {
			if gs.active {
				gs.extra += w.skipped
			}
		}
	}
	w.coveredAll, w.fetchedMask, w.skipped, w.quarantined = 0, 0, 0, 0
}

// scanBlocks is the one per-block path: static prune → active-group
// skip → bind, which makes the block readable and appends its rows to
// the span's selection vector, counting coverage in e.acc. Once the last
// block is in, the kernel runs once over the span. It stops at the first
// read failure and returns it. The last bound extents stay pinned (see
// releaseViews).
func (e *engine) scanBlocks(lo, hi int) error {
	w := e.acc
	w.touched = w.touched[:0]
	active := e.activeMask(lo)
	sel, bs := w.sel[:0], e.layout.BlockSize
	for b := lo; b < hi; b++ {
		s, end := e.layout.BlockBounds(b)
		n := end - s
		// Static predicate pruning applies to every strategy: a pruned
		// block provably contains no view rows for any group.
		if !e.pred.blockPossible(b) {
			w.coveredAll += n
			continue
		}
		// Active-scan skip: the block has no rows of any active group.
		if active&(1<<(b&63)) == 0 {
			w.skipped += n
			continue
		}
		// Bind before crediting coverage or selecting a row: a
		// quarantined block under DegradedReads is skipped with its rows
		// left unobserved — only totalCovered advances, never coveredAll
		// or any group's skip credit — so the unknown-view-size machinery
		// (N⁺ bounds, varCap worst-case contribution) keeps every
		// interval conservatively valid: the skipped rows are accounted
		// exactly like rows the scan has not reached yet, and exact
		// finalization can never fire over them.
		if err := w.views.bind(b); err != nil {
			if e.opts.DegradedReads && isBlockError(err) {
				w.quarantined++
				continue
			}
			return err
		}
		w.fetchedMask |= 1 << (b & 63)
		w.coveredAll += n
		first, k := (b-lo)*bs, len(sel)
		sel = sel[:k+n] // within the span-sized capacity
		rows := sel[k:]
		for i := range rows {
			rows[i] = int32(first + i)
		}
	}
	if len(sel) > 0 {
		w.views.bindSpan(lo, hi)
		e.kernel(sel)
	}
	return nil
}

// isBlockError reports whether err is a classified storage-block
// failure — the only kind degraded reads may skip (anything else is a
// logic error that must abort).
func isBlockError(err error) bool {
	var be *blockstore.BlockError
	return errors.As(err, &be)
}

// kernel runs over the span's selection vector sel — the rows of its
// fetched blocks, span-local, in scan order — on the bound views. The
// vectorized kernel filters sel one predicate atom at a time, gathers
// the survivors' group IDs, partitions sel by group and gathers each
// aggregate input once, already in group order, into the span buffer
// that replay reads. The scalar branch matches, groups, gathers and
// observes a row at a time (the seed interpreter), straight into each
// row's group and with no partition, kept as the independent reference
// the kernel-equivalence property tests pin the kernel to.
func (e *engine) kernel(sel []int32) {
	w := e.acc
	vs := w.views
	if scalarKernel {
		for k, r := range sel {
			if !e.pred.match(vs, int(r)) {
				continue
			}
			if gs := e.states[e.grp.groupOf(vs, int(r))]; !gs.exact {
				e.gatherInputsInto(vs, sel[k:k+1], w.vals)
				gs.observeRun(e.aggs, w.vals, 0, 1)
			}
		}
		return
	}
	sel = e.pred.filter(vs, sel)
	if w.gids != nil {
		w.gids = e.gatherGidsInto(vs, sel, w.gids)
	}
	e.gatherInputsInto(vs, w.partition(sel), w.vals)
}

// gatherInputsInto sets bufs[k] to input k's value for each selected
// row: a float column's bound view, a compiled expression kernel's
// output, 1 for COUNT, a categorical column's dictionary codes, or the
// square of an already-gathered input. Square inputs always follow
// their source in the list, so one left-to-right pass resolves every
// dependency.
func (e *engine) gatherInputsInto(vs *viewSet, sel []int32, bufs [][]float64) {
	for k := range e.inputs {
		in := &e.inputs[k]
		out := bufs[k][:len(sel)] // within the span buffer's capacity
		bufs[k] = out
		switch in.kind {
		case inColumn:
			src := vs.fvals[in.slot]
			for i, r := range sel {
				out[i] = src[r]
			}
		case inKernel:
			for i, r := range sel {
				out[i] = in.kernel(vs.fvals, int(r))
			}
		case inOne:
			for i := range out {
				out[i] = 1
			}
		case inCatCode:
			src := vs.cvals[in.slot]
			for i, r := range sel {
				out[i] = float64(src[r])
			}
		case inSquare:
			for i, v := range bufs[in.src] {
				out[i] = v * v
			}
		}
	}
}

// gatherGidsInto sets dst to the dense group ID of each selected row,
// computed column-at-a-time: one pass per GROUP BY column accumulating
// the mixed-radix code, instead of one multi-column walk per row.
func (e *engine) gatherGidsInto(vs *viewSet, sel []int32, dst []int32) []int32 {
	dst = dst[:len(sel)] // within the span buffer's capacity
	for i := range dst {
		dst[i] = 0
	}
	for c, slot := range e.grp.slots {
		radix, codes := int32(e.grp.radix[c]), vs.cvals[slot]
		for i, r := range sel {
			dst[i] = dst[i]*radix + int32(codes[r])
		}
	}
	return dst
}

// activeMask is active scanning's skip rule (§4.3) for the span starting
// at block lo, 64 blocks at a time: bit b&63 says block b can hold rows
// of a still-active group — the OR over active groups of the AND over the
// GROUP BY columns of the word of each code's block bitmap that holds the
// span. A span lies inside one aligned extent of at most 64 blocks, so it
// is one word of every bitmap; and the active set only changes at round
// barriers, never inside a span. For composite groups the AND is
// conservative (the values may not co-occur on one row), which only costs
// an extra fetch. Every row belongs to some instantiated group, so while
// all of them are active — and under Scan, or with no GROUP BY — nothing
// is skipped.
func (e *engine) activeMask(lo int) uint64 {
	const all = ^uint64(0)
	if e.opts.Strategy != Active || e.numActive == len(e.ordered) {
		return all
	}
	var mask uint64
	for _, gs := range e.ordered {
		if !gs.active {
			continue
		}
		if mask |= e.grp.blocksWithGroup(lo>>6, gs.codes); mask == all {
			break
		}
	}
	return mask
}

// closeGroups recomputes every view's intervals for the look being
// closed. Like the rest of the engine it runs on the goroutine driving
// it: a group's close costs ≈ 0.13 µs, so even the widest statement
// closes in tens of microseconds.
func (e *engine) closeGroups(deltaRound float64) {
	coveredAll, cfg := e.coveredAll, &e.cfg
	for _, gs := range e.ordered {
		gs.closeRound(deltaRound, coveredAll, cfg)
	}
}

func (e *engine) closeRound() {
	e.closeGroups(e.looks.Close(e.totalCovered, e.deltaAgg))
	e.numActive = refreshActive(e.ordered, e.q.Stop, e.aggs, &e.stopScr)
	if e.numActive == 0 && e.q.Stop.Kind != query.StopExhaust {
		e.stopped = true
	}
	if e.opts.OnRound != nil {
		snap := RoundSnapshot{
			Round:             e.looks.Closed(),
			RowsCovered:       e.totalCovered,
			BlocksFetched:     e.cursor.BlocksFetched(),
			NumActive:         e.numActive,
			Degraded:          e.degraded,
			QuarantinedBlocks: e.quarantined,
			Groups:            e.snapshotGroups(),
		}
		if !e.opts.OnRound(snap) {
			e.aborted = true
			e.stopped = true
		}
	}
	// Context cancellation rides the abort path: the bounds recomputed
	// just above stay valid CIs wherever the scan stops.
	if !e.stopped && e.ctx != nil {
		select {
		case <-e.ctx.Done():
			e.aborted = true
			e.stopped = true
		default:
		}
	}
}

// snapshotGroups copies the observed groups' current intervals into
// fresh slices, in key order. A group renders its key and joins
// e.observed at the first look that finds it with support.
func (e *engine) snapshotGroups() []GroupResult {
	if n := len(e.observed); n < len(e.ordered) {
		for _, gs := range e.ordered {
			if gs.mv > 0 && !gs.listed {
				gs.listed, gs.key = true, e.grp.keyOf(gs.id)
				e.observed = append(e.observed, gs)
			}
		}
		if len(e.observed) > n {
			sort.Slice(e.observed, func(i, j int) bool { return e.observed[i].key < e.observed[j].key })
		}
	}
	na := len(e.aggs)
	out, answers := make([]GroupResult, len(e.observed)), make([]AggAnswer, len(e.observed)*na)
	for g, gs := range e.observed {
		aggs := answers[g*na : (g+1)*na : (g+1)*na]
		for i := range aggs {
			aggs[i] = AggAnswer{Kind: e.aggs[i].kind, Interval: gs.aggs[i].answer(&e.aggs[i])}
		}
		out[g] = GroupResult{Key: gs.key, Aggs: aggs, Samples: gs.mv, Exact: gs.exact}
	}
	return out
}

func (e *engine) result() *Result {
	return &Result{
		Groups:            e.snapshotGroups(), // views with no observed support are not reported
		BlocksFetched:     e.cursor.BlocksFetched(),
		RowsCovered:       e.totalCovered,
		Rounds:            e.looks.Closed(),
		StartBlock:        e.cursor.Start(),
		Exhausted:         e.cursor.Exhausted(),
		Stopped:           e.stopped,
		Aborted:           e.aborted,
		Degraded:          e.degraded,
		QuarantinedBlocks: e.quarantined,
	}
}
