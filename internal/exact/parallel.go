package exact

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"fastframe/internal/blockstore"
	"fastframe/internal/expr"
	"fastframe/internal/query"
	"fastframe/internal/stats"
	"fastframe/internal/table"
)

// aggAccum is one worker's per-group accumulator for one SELECT-list
// aggregate: running sums for AVG/SUM, retained values in row order for
// the quantile kinds, Welford moments for VAR/STDDEV, and a dense
// seen-code bitmap for COUNT DISTINCT. Only the maps the aggregate's
// kind touches ever gain entries.
type aggAccum struct {
	sums map[int]float64
	vals map[int][]float64
	wf   map[int]*stats.Welford
	seen map[int][]bool
}

func newAggAccum() aggAccum {
	return aggAccum{
		sums: map[int]float64{},
		vals: map[int][]float64{},
		wf:   map[int]*stats.Welford{},
		seen: map[int][]bool{},
	}
}

// partial is one worker's per-group accumulator over a disjoint row
// range. Counts and sums merge additively, retained quantile values
// concatenate, Welford states merge with the Chan update, and seen
// bitmaps union — so exact scans partition trivially for the whole
// aggregate list.
type partial struct {
	counts map[int]int
	accs   []aggAccum // one per SELECT-list aggregate
	err    error      // first out-of-core read failure in this partition
}

// Merge folds another partition's accumulator into p. Merging is exact
// for counts and bitmaps; sums, value concatenation, and Welford
// merges combine in whatever partition order the caller walks, so
// callers iterate partitions in row order to keep results
// deterministic for a fixed worker count.
func (p *partial) Merge(o *partial) {
	for id, c := range o.counts {
		p.counts[id] += c
	}
	for k := range p.accs {
		a, b := &p.accs[k], &o.accs[k]
		for id, s := range b.sums {
			a.sums[id] += s
		}
		for id, vs := range b.vals {
			a.vals[id] = append(a.vals[id], vs...)
		}
		for id, w := range b.wf {
			if mine := a.wf[id]; mine != nil {
				mine.Merge(*w)
			} else {
				cp := *w
				a.wf[id] = &cp
			}
		}
		for id, s := range b.seen {
			if mine := a.seen[id]; mine != nil {
				for c, ok := range s {
					if ok {
						mine[c] = true
					}
				}
			} else {
				cp := make([]bool, len(s))
				copy(cp, s)
				a.seen[id] = cp
			}
		}
	}
}

// scanPartition accumulates one contiguous row range, walking it block
// by block through a binder (resident subslices or pinned buffer-pool
// frames) while visiting rows in exactly the old global order — float
// sums are unchanged. The context is checked every ctxCheckRows rows; a
// cancelled context abandons the partition early (the caller discards
// all partials).
func (e *evaluator) scanPartition(ctx context.Context, lo, hi int, p *partial) {
	bd := e.newBinder()
	defer bd.release()
	layout := e.t.Layout()
	sinceCheck := ctxCheckRows // check once at entry, like the row-loop did
	for row := lo; row < hi; {
		if sinceCheck >= ctxCheckRows {
			if ctx.Err() != nil {
				return
			}
			sinceCheck = 0
		}
		b := layout.BlockOf(row)
		s, end := layout.BlockBounds(b)
		if err := bd.bind(b); err != nil {
			p.err = err
			return
		}
		stop := min(end, hi)
		for r := row; r < stop; r++ {
			lr := r - s
			if !e.match(bd, lr) {
				continue
			}
			id := e.groupOf(bd, lr)
			p.counts[id]++
			for k := range e.aggs {
				e.aggs[k].observe(&p.accs[k], bd, id, lr)
			}
		}
		sinceCheck += stop - row
		row = stop
	}
}

// RunParallel evaluates the query exactly using `workers` goroutines
// over disjoint row ranges (workers ≤ 0 selects GOMAXPROCS). The paper
// notes its techniques "can be easily parallelized"; exact scans
// parallelize trivially because per-group sums and counts merge
// additively. Results are identical to Run up to floating-point
// summation order.
func RunParallel(t *table.Table, q query.Query, workers int) (*Result, error) {
	return RunParallelContext(context.Background(), t, q, workers)
}

// RunParallelContext is RunParallel with cancellation: every worker
// checks the context periodically, and a cancelled or expired context
// drains the pool and returns ctx.Err() — an exact answer has no valid
// partial form, so nothing else is returned.
func RunParallelContext(ctx context.Context, t *table.Table, q query.Query, workers int) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > t.NumRows() {
		workers = max(1, t.NumRows())
	}
	start := time.Now()

	eval, err := newEvaluator(t, q)
	if err != nil {
		return nil, err
	}

	parts := make([]*partial, workers)
	var wg sync.WaitGroup
	rowsPer := (t.NumRows() + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := min(w*rowsPer, t.NumRows())
		hi := min(lo+rowsPer, t.NumRows())
		p := &partial{counts: map[int]int{}, accs: make([]aggAccum, len(eval.aggs))}
		for k := range p.accs {
			p.accs[k] = newAggAccum()
		}
		parts[w] = p
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int, p *partial) {
			defer wg.Done()
			eval.scanPartition(ctx, lo, hi, p)
		}(lo, hi, p)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
	}

	// Merge partitions in row order (deterministic float summation for
	// a fixed worker count).
	merged := parts[0]
	for _, p := range parts[1:] {
		merged.Merge(p)
	}

	res := &Result{}
	for id, c := range merged.counts {
		gv := GroupValue{Key: keyOf(eval.groupCols, id), Count: c}
		gv.Stats = make([]float64, len(eval.aggs))
		for k := range eval.aggs {
			gv.Stats[k] = eval.aggs[k].finalize(&merged.accs[k], id, c)
		}
		res.Groups = append(res.Groups, gv)
	}
	sort.Slice(res.Groups, func(i, j int) bool { return res.Groups[i].Key < res.Groups[j].Key })
	res.Duration = time.Since(start)
	return res, nil
}

// evaluator is the resolved per-row machinery shared by Run and
// RunParallel. Columns are referenced by slot into a binder's bound
// block views, so exact evaluation works identically over resident and
// out-of-core tables.
type evaluator struct {
	t *table.Table

	// aggs is the resolved SELECT list, in list order.
	aggs []exAgg

	catAtoms   []catAtom
	inAtoms    []inAtom
	rangeAtoms []rangeAtom
	groupCols  []*table.CatColumn // dictionaries for keyOf and radix
	groupSlots []int

	fnames  []string
	cnames  []string
	fblocks []table.FloatBlocks
	cblocks []table.CatBlocks
}

type catAtom struct {
	slot int
	code uint32
	ok   bool
}

// inAtom holds a dense code-indexed membership table (not a Go map):
// one bounds-checked load per row on the scan path.
type inAtom struct {
	slot  int
	dense []bool
}

type rangeAtom struct {
	slot int
	r    query.FloatRange
}

// floatSlot resolves a float column to a dense slot, adding it on first
// use.
func (e *evaluator) floatSlot(name string) (int, error) {
	for i, n := range e.fnames {
		if n == name {
			return i, nil
		}
	}
	fb, err := e.t.FloatBlocks(name)
	if err != nil {
		return 0, err
	}
	e.fnames = append(e.fnames, name)
	e.fblocks = append(e.fblocks, fb)
	return len(e.fnames) - 1, nil
}

// catSlot resolves a categorical column to a dense slot, adding it on
// first use.
func (e *evaluator) catSlot(name string) (int, error) {
	for i, n := range e.cnames {
		if n == name {
			return i, nil
		}
	}
	cb, err := e.t.CatBlocks(name)
	if err != nil {
		return 0, err
	}
	e.cnames = append(e.cnames, name)
	e.cblocks = append(e.cblocks, cb)
	return len(e.cnames) - 1, nil
}

// binder is one worker's bound per-block column views.
type binder struct {
	e       *evaluator
	fvals   [][]float64
	cvals   [][]uint32
	fframes []*blockstore.Frame
	cframes []*blockstore.Frame
}

func (e *evaluator) newBinder() *binder {
	return &binder{
		e:       e,
		fvals:   make([][]float64, len(e.fblocks)),
		cvals:   make([][]uint32, len(e.cblocks)),
		fframes: make([]*blockstore.Frame, len(e.fblocks)),
		cframes: make([]*blockstore.Frame, len(e.cblocks)),
	}
}

// bind binds block b of every column; the pool extents it lies in stay
// pinned from one bind to the next, until release.
func (bd *binder) bind(b int) error {
	var err error
	for i := range bd.e.fblocks {
		if bd.fvals[i], bd.fframes[i], err = bd.e.fblocks[i].Bind(b, bd.fframes[i]); err != nil {
			return err
		}
	}
	for i := range bd.e.cblocks {
		if bd.cvals[i], bd.cframes[i], err = bd.e.cblocks[i].Bind(b, bd.cframes[i]); err != nil {
			return err
		}
	}
	return nil
}

func (bd *binder) release() {
	for i, f := range bd.fframes {
		if f != nil {
			bd.e.fblocks[i].Unpin(f)
			bd.fframes[i] = nil
		}
	}
	for i, f := range bd.cframes {
		if f != nil {
			bd.e.cblocks[i].Unpin(f)
			bd.cframes[i] = nil
		}
	}
}

// exAgg is one resolved SELECT-list aggregate: its kind, its input
// (float slot, compiled kernel, or categorical slot for COUNT
// DISTINCT), and the quantile target for MEDIAN/PERCENTILE.
type exAgg struct {
	kind     query.AggKind
	slot     int // float input slot, -1 if none
	kernel   func(vars [][]float64, row int) float64
	catSlot  int // categorical input slot (COUNT DISTINCT), -1 if none
	dictSize int
	p        float64
}

// value reads the aggregate's float input for the bound block's row.
func (a *exAgg) value(bd *binder, row int) float64 {
	if a.slot >= 0 {
		return bd.fvals[a.slot][row]
	}
	return a.kernel(bd.fvals, row)
}

// observe folds one matching row into the aggregate's accumulator.
func (a *exAgg) observe(acc *aggAccum, bd *binder, id, row int) {
	switch a.kind {
	case query.Count:
		// membership only; the shared counts map carries it
	case query.CountDistinct:
		s := acc.seen[id]
		if s == nil {
			s = make([]bool, a.dictSize)
			acc.seen[id] = s
		}
		s[bd.cvals[a.catSlot][row]] = true
	case query.Median, query.Percentile:
		acc.vals[id] = append(acc.vals[id], a.value(bd, row))
	case query.Var, query.Stddev:
		w := acc.wf[id]
		if w == nil {
			w = &stats.Welford{}
			acc.wf[id] = w
		}
		w.Add(a.value(bd, row))
	default: // Avg, Sum
		acc.sums[id] += a.value(bd, row)
	}
}

// finalize turns the merged accumulator into the aggregate's exact
// value for one group with c matching rows.
func (a *exAgg) finalize(acc *aggAccum, id, c int) float64 {
	switch a.kind {
	case query.Count:
		return float64(c)
	case query.CountDistinct:
		d := 0
		for _, ok := range acc.seen[id] {
			if ok {
				d++
			}
		}
		return float64(d)
	case query.Median, query.Percentile:
		// Same order statistic the online path's exact finalization
		// reports, so the two exact layers agree on ties.
		var ec stats.ECDF
		ec.AddAll(acc.vals[id])
		return ec.Quantile(a.p)
	case query.Var, query.Stddev:
		v := 0.0
		if w := acc.wf[id]; w != nil {
			v = w.Variance()
		}
		if a.kind == query.Stddev {
			v = math.Sqrt(v)
		}
		return v
	case query.Sum:
		return acc.sums[id]
	default: // Avg
		if c > 0 {
			return acc.sums[id] / float64(c)
		}
		return 0
	}
}

func newEvaluator(t *table.Table, q query.Query) (*evaluator, error) {
	e := &evaluator{t: t}
	for _, a := range q.Aggs {
		ag := exAgg{kind: a.Kind, slot: -1, catSlot: -1, p: a.Quantile()}
		switch a.Kind {
		case query.Count:
			// no input
		case query.CountDistinct:
			col, err := t.Cat(a.Column)
			if err != nil {
				return nil, err
			}
			slot, err := e.catSlot(a.Column)
			if err != nil {
				return nil, err
			}
			ag.catSlot = slot
			ag.dictSize = col.NumValues()
		default:
			if a.Expr != nil {
				kern, err := expr.CompileKernel(a.Expr, e.floatSlot)
				if err != nil {
					return nil, err
				}
				ag.kernel = kern
			} else {
				slot, err := e.floatSlot(a.Column)
				if err != nil {
					return nil, err
				}
				ag.slot = slot
			}
		}
		e.aggs = append(e.aggs, ag)
	}
	for _, atom := range q.Pred.CatEq {
		col, err := t.Cat(atom.Column)
		if err != nil {
			return nil, err
		}
		slot, err := e.catSlot(atom.Column)
		if err != nil {
			return nil, err
		}
		code, ok := col.Code(atom.Value)
		e.catAtoms = append(e.catAtoms, catAtom{slot: slot, code: code, ok: ok})
	}
	for _, atom := range q.Pred.CatIn {
		col, err := t.Cat(atom.Column)
		if err != nil {
			return nil, err
		}
		slot, err := e.catSlot(atom.Column)
		if err != nil {
			return nil, err
		}
		dense := make([]bool, col.NumValues())
		for _, v := range atom.Values {
			if code, ok := col.Code(v); ok {
				dense[code] = true
			}
		}
		e.inAtoms = append(e.inAtoms, inAtom{slot: slot, dense: dense})
	}
	for _, r := range q.Pred.Ranges {
		slot, err := e.floatSlot(r.Column)
		if err != nil {
			return nil, err
		}
		e.rangeAtoms = append(e.rangeAtoms, rangeAtom{slot: slot, r: r})
	}
	for _, name := range q.GroupBy {
		col, err := t.Cat(name)
		if err != nil {
			return nil, err
		}
		slot, err := e.catSlot(name)
		if err != nil {
			return nil, err
		}
		e.groupCols = append(e.groupCols, col)
		e.groupSlots = append(e.groupSlots, slot)
	}
	return e, nil
}

// match evaluates the predicate against the bound block's local row.
func (e *evaluator) match(bd *binder, row int) bool {
	for _, a := range e.catAtoms {
		if !a.ok || bd.cvals[a.slot][row] != a.code {
			return false
		}
	}
	for _, a := range e.inAtoms {
		if !a.dense[bd.cvals[a.slot][row]] {
			return false
		}
	}
	for _, a := range e.rangeAtoms {
		v := bd.fvals[a.slot][row]
		if v < a.r.Lo || v > a.r.Hi {
			return false
		}
	}
	return true
}

// groupOf returns the mixed-radix group ID of the bound block's local
// row.
func (e *evaluator) groupOf(bd *binder, row int) int {
	id := 0
	for i, col := range e.groupCols {
		id = id*col.NumValues() + int(bd.cvals[e.groupSlots[i]][row])
	}
	return id
}
