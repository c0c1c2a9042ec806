package exec

import (
	"math"

	"fastframe/internal/ci"
	"fastframe/internal/query"
	"fastframe/internal/stats"
)

// inputKind classifies one gathered scan input. The engine deduplicates
// the SELECT list's inputs into one gather buffer per distinct input:
// every aggregate references inputs by index, so a block is read once no
// matter how many aggregates consume each column.
type inputKind int

const (
	// inColumn reads one float column's bound view.
	inColumn inputKind = iota
	// inKernel evaluates a compiled expression over the bound views.
	inKernel
	// inCatCode yields a categorical column's dictionary code as a
	// float64 — exact for every uint32, which keeps all observation
	// plumbing (span buffers, partition, replay) monotyped.
	inCatCode
	// inSquare yields the square of another input (the E[X²] track of
	// VAR/STDDEV), derived from that input's already-gathered buffer.
	inSquare
)

// inputSpec is one deduplicated scan input.
type inputSpec struct {
	kind   inputKind
	slot   int // inColumn: float slot; inCatCode: cat slot
	kernel func(vars [][]float64, row int) float64
	src    int // inSquare: index of the input being squared
}

// trackSpec is one bounder track: a distinct gather input whose mean
// some aggregate bounds — x for AVG, SUM, VAR and STDDEV, x² for VAR and
// STDDEV — with the input's catalog bounds. Every aggregate over one
// input reads the one track: a ci.State is a function of its value
// sequence alone, so a copy per aggregate would only repeat its updates.
type trackSpec struct {
	in   int     // gather input index
	a, b float64 // the input's catalog bounds
}

// aggSpec is the engine-wide (group-independent) description of one
// SELECT-list aggregate: its kind, which gather input and bounder
// tracks feed it, the catalog range bounds of its input, and kind
// parameters. Track and twin indices are stored +1, so that the zero
// aggSpec has neither.
type aggSpec struct {
	kind query.AggKind
	in   int // primary input index (read directly by the sketch kinds); COUNT has none
	x    int // 1 + the track over the input (Avg, Sum, Var, Stddev), else 0
	sq   int // 1 + the track over the input's square (Var, Stddev), else 0
	twin int // 1 + an earlier Var/Stddev over the same tracks, else 0

	a, b float64 // primary input catalog bounds

	p        float64 // quantile (Median: 0.5, Percentile: Aggregate.P)
	dictSize int     // CountDistinct: size of the candidate code space
}

// varCap returns Popoviciu's bound (b−a)²/4 on the variance of a
// [a,b]-valued dataset.
func (sp *aggSpec) varCap() float64 {
	d := sp.b - sp.a
	return d * d / 4
}

// track is one trackSpec's per-group state: the bounder state and the
// exact running sums of its input.
type track struct {
	state       ci.State
	sum, absSum float64
}

// aggState is the per-(group, aggregate) streaming state: the sketches
// the aggregate's kind needs, and the running interval intersections its
// answer derives from. Its mean tracks live in groupState.tracks.
type aggState struct {
	ecdf     stats.ECDF // retained sample (Median/Percentile)
	seen     []bool     // dense code-seen table (CountDistinct)
	distinct int        // observed distinct codes (CountDistinct)

	// Running interval intersections across rounds. Each kind maintains
	// only the tracks answer derives its interval from: bestAvg (Avg,
	// Sum, Var/Stddev), bestCount (Count, Sum, CountDistinct), bestSum
	// (Sum), bestSq (Var/Stddev), and best for the sketch kinds' answer
	// (quantile / variance / distinct-count space).
	bestAvg   ci.Interval
	bestCount ci.Interval
	bestSum   ci.Interval
	bestSq    ci.Interval
	best      ci.Interval
}

// answer returns this aggregate's answer interval. Stddev is stored in
// variance space (intersections stay linear) and transformed here.
func (as *aggState) answer(sp *aggSpec) ci.Interval {
	switch sp.kind {
	case query.Sum:
		return as.bestSum
	case query.Count:
		return as.bestCount
	case query.Avg:
		return as.bestAvg
	case query.Stddev:
		return ci.Interval{
			Lo:       math.Sqrt(math.Max(0, as.best.Lo)),
			Hi:       math.Sqrt(math.Max(0, as.best.Hi)),
			Estimate: math.Sqrt(math.Max(0, as.best.Estimate)),
			Samples:  as.best.Samples,
		}
	default:
		return as.best
	}
}

// groupState is the streaming state for one aggregate view: per-track
// bounder states and per-aggregate sketches over the view's sampled
// rows, shared exact coverage counters, and activeness (Algorithm 5).
// All aggregates of the SELECT list share the view, so one row count
// (mv) serves every per-aggregate count interval.
type groupState struct {
	id     int
	codes  []uint32
	key    string // the rendered GROUP BY key, once listed in engine.observed
	listed bool

	tracks []track
	aggs   []aggState
	mv     int // view rows observed (shared by every aggregate)

	// extra is the coverage this group earned from blocks skipped by
	// active scanning while the group was active (such blocks provably
	// contain none of its rows). Total coverage is coveredAll + extra.
	extra int

	active bool
	// exact is set by finalizeExact once the scan has walked the whole
	// scramble, after its last look: an output flag, never read while
	// the scan runs.
	exact bool
}

func newGroupState(id int, codes []uint32, b ci.Bounder, specs []aggSpec, tracks []trackSpec, bigR int) *groupState {
	gs := &groupState{
		id:     id,
		codes:  codes,
		tracks: make([]track, len(tracks)),
		aggs:   make([]aggState, len(specs)),
		active: true,
	}
	for k := range tracks {
		gs.tracks[k].state = b.NewState()
	}
	for i := range specs {
		sp := &specs[i]
		as := &gs.aggs[i]
		as.bestAvg = ci.Interval{Lo: sp.a, Hi: sp.b}
		as.bestCount = ci.Interval{Lo: 0, Hi: float64(bigR)}
		as.bestSum = ci.Interval{
			Lo: math.Min(math.Min(0, float64(bigR)*sp.a), float64(bigR)*sp.b),
			Hi: math.Max(math.Max(0, float64(bigR)*sp.a), float64(bigR)*sp.b),
		}
		switch sp.kind {
		case query.Median, query.Percentile:
			as.best = ci.Interval{Lo: sp.a, Hi: sp.b}
		case query.Var, query.Stddev:
			sq := &tracks[sp.sq-1]
			as.bestSq = ci.Interval{Lo: sq.a, Hi: sq.b}
			as.best = ci.Interval{Lo: 0, Hi: sp.varCap()}
		case query.CountDistinct:
			as.seen = make([]bool, sp.dictSize)
			as.best = ci.Interval{Lo: 0, Hi: float64(sp.dictSize)}
		}
	}
	return gs
}

// observeRun incorporates rows lo..hi of the span buffer — one group's
// rows of a span, in scan order, the values of input k in in[k] —
// byte-identical to observing them a row at a time (running sums
// accumulate left-to-right and State.UpdateBatch is contractually the
// same recurrence as repeated Update), with one bounder dispatch per
// track, group and span instead of per row: the sketches, then each
// track once, however many aggregates read it.
func (gs *groupState) observeRun(specs []aggSpec, tracks []trackSpec, in [][]float64, lo, hi int) {
	for i := range specs {
		sp := &specs[i]
		switch sp.kind {
		case query.Median, query.Percentile:
			gs.aggs[i].ecdf.AddAll(in[sp.in][lo:hi])
		case query.CountDistinct:
			as, vs := &gs.aggs[i], in[sp.in][lo:hi]
			for _, v := range vs {
				if c := int(v); !as.seen[c] {
					as.seen[c] = true
					as.distinct++
				}
			}
		}
	}
	for k := range gs.tracks {
		tr := &gs.tracks[k]
		vs := in[tracks[k].in][lo:hi]
		tr.state.UpdateBatch(vs)
		tr.sum, tr.absSum = addSums(tr.sum, tr.absSum, vs)
	}
	gs.mv += hi - lo
}

// addSums adds vs, left to right, to a running sum and a running sum of
// absolute values — in locals, so that both stay in registers.
func addSums(sum, absSum float64, vs []float64) (float64, float64) {
	for _, v := range vs {
		sum += v
		absSum += math.Abs(v)
	}
	return sum, absSum
}

// covered returns the rows whose membership in this view is resolved.
func (gs *groupState) covered(coveredAll int) int { return coveredAll + gs.extra }

// intersect tightens dst with iv, keeping estimates/samples current.
func intersect(dst *ci.Interval, iv ci.Interval) {
	if iv.Lo > dst.Lo {
		dst.Lo = iv.Lo
	}
	if iv.Hi < dst.Hi {
		dst.Hi = iv.Hi
	}
	if dst.Lo > dst.Hi {
		// Collapse pathological crossings onto the estimate.
		dst.Lo, dst.Hi = iv.Estimate, iv.Estimate
	}
	dst.Estimate = iv.Estimate
	dst.Samples = iv.Samples
}

// roundAccum is the scan's working state: the coverage counters of the
// span being scanned, the bound column views, and the span buffer —
// the selected rows of the span partitioned by group, each group's rows
// in scan order, with their input values gathered in that same order.
// At the end of a span the engine folds the counters and replays the
// buffer group by group (order-dependent states like RangeTrim clip
// each value against the running extrema of the whole prefix).
type roundAccum struct {
	coveredAll  int    // rows resolved for every view (fetched + pruned)
	fetchedMask uint64 // bit b&63 set for every block b actually read
	skipped     int    // rows of active-scan-skipped blocks
	quarantined int    // blocks skipped as damaged (DegradedReads)

	// The partition: gids[i] is the group of the filtered selection's
	// row i (gids is nil when every row belongs to the one global view);
	// touched lists the groups with rows in the span, and positions
	// starts[i]:starts[i+1] of the partitioned selection — grouped, or
	// the selection itself when one group is touched — hold touched[i]'s
	// rows in scan order. count is indexed by group and all zero between
	// partitions: building one costs O(rows selected) whatever the size
	// of the group space.
	gids    []int32
	touched []int32
	starts  []int32
	grouped []int32
	count   []int32

	// vals[k][i] is input k's value for row i of the partitioned
	// selection: touched[j]'s values are vals[k][starts[j]:starts[j+1]].
	vals [][]float64

	sel []int32 // the span's selection vector: span-local row indices

	views *viewSet // the bound column views
}

// partition orders the selection vector sel by group, stably — a
// counting sort over the touched groups only, keyed by gids — and
// returns it: sel itself when the span touches one group, else grouped.
func (a *roundAccum) partition(sel []int32) []int32 {
	a.touched, a.starts = a.touched[:0], a.starts[:0]
	n := len(sel)
	if n == 0 {
		return sel
	}
	if a.gids == nil {
		a.touched, a.starts = append(a.touched, 0), append(a.starts, 0, int32(n))
		return sel
	}
	// Slice headers in locals: these loops run once per selected row.
	gids, count, touched, starts := a.gids[:n], a.count, a.touched, a.starts
	for _, g := range gids {
		if count[g] == 0 {
			touched = append(touched, g)
		}
		count[g]++
	}
	off := int32(0)
	for _, g := range touched {
		starts = append(starts, off)
		off, count[g] = off+count[g], off
	}
	a.touched, a.starts = touched, append(starts, off)
	if len(touched) > 1 {
		grouped := a.grouped[:n]
		for i, g := range gids {
			grouped[count[g]] = sel[i]
			count[g]++
		}
		sel = grouped
	}
	for _, g := range touched {
		count[g] = 0
	}
	return sel
}

// roundConfig carries the per-round bound-computation context.
type roundConfig struct {
	specs  []aggSpec   // the SELECT list's resolved aggregates
	tracks []trackSpec // the bounder tracks they read, each input once
	bigR   int         // scramble size
	knownN bool        // view is the whole table (trivial pred, no groups)
}

// avgTrack recomputes one mean-bounder track's interval at budget delta:
// the known-N shortcut when the view is the whole scramble, otherwise
// Theorem 3 — (1−α)·delta buys an upper bound N⁺ on the view size, the
// interval itself runs at α·delta (δ/2 per side inside BoundInterval).
// Dataset-size monotonicity (§3.3) makes the substitution safe.
func avgTrack(state *ci.State, a, b float64, mv, r int, cfg *roundConfig, delta float64) ci.Interval {
	if boundHook != nil {
		boundHook(state.Count())
	}
	if cfg.knownN {
		return ci.BoundInterval(*state, ci.Params{A: a, B: b, N: cfg.bigR, Delta: delta})
	}
	nUp := countUpper(r, cfg.bigR, mv, (1-alpha)*delta)
	return ci.BoundInterval(*state, ci.Params{A: a, B: b, N: nUp, Delta: alpha * delta})
}

// boundHook, when set, is called with a track's sample count before
// avgTrack bounds it. Only tests set it, before any engine runs.
var boundHook func(samples int)

// varFrom turns a mean interval and an E[X²] interval into a variance
// interval via VAR = E[X²] − E[X]² interval arithmetic, clamped to
// [0, (b−a)²/4] (Popoviciu). The two tracks each hold with probability
// 1−δ/2, so the variance interval holds with probability 1−δ by the
// union bound.
func varFrom(mean, sq ci.Interval, cap float64) ci.Interval {
	maxSq := math.Max(mean.Lo*mean.Lo, mean.Hi*mean.Hi)
	minSq := 0.0
	if mean.Lo > 0 || mean.Hi < 0 {
		minSq = math.Min(mean.Lo*mean.Lo, mean.Hi*mean.Hi)
	}
	lo := stats.Clamp(sq.Lo-maxSq, 0, cap)
	hi := stats.Clamp(sq.Hi-minSq, 0, cap)
	est := stats.Clamp(sq.Estimate-mean.Estimate*mean.Estimate, lo, hi)
	return ci.Interval{Lo: lo, Hi: hi, Estimate: est, Samples: mean.Samples}
}

// closeRound recomputes this view's intervals for a look and intersects
// them into the running bests; deltaRound is what the look schedule
// gives each aggregate of the view to spend on it.
func (gs *groupState) closeRound(deltaRound float64, coveredAll int, cfg *roundConfig) {
	r := gs.covered(coveredAll)
	if r <= 0 {
		return
	}
	for i := range cfg.specs {
		if sp := &cfg.specs[i]; sp.twin > 0 {
			// Its twin closed the same tracks at the same δ just above.
			gs.aggs[i] = gs.aggs[sp.twin-1]
		} else {
			gs.aggs[i].closeRound(sp, gs.tracks, gs.mv, r, cfg, deltaRound)
		}
	}
}

// closeRound recomputes one aggregate's intervals for the round.
func (as *aggState) closeRound(sp *aggSpec, tracks []track, mv, r int, cfg *roundConfig, deltaRound float64) {
	switch sp.kind {
	case query.Avg:
		intersect(&as.bestAvg, avgTrack(&tracks[sp.x-1].state, sp.a, sp.b, mv, r, cfg, deltaRound))

	case query.Count:
		intersect(&as.bestCount, viewCountInterval(mv, r, cfg, deltaRound))

	case query.Sum:
		// SUM needs both the COUNT and the AVG interval to hold jointly
		// (§4.1): split the round budget between them.
		intersect(&as.bestCount, viewCountInterval(mv, r, cfg, deltaRound/2))
		intersect(&as.bestAvg, avgTrack(&tracks[sp.x-1].state, sp.a, sp.b, mv, r, cfg, deltaRound/2))
		as.bestSum = sumInterval(as.bestCount, as.bestAvg)

	case query.Median, query.Percentile:
		if m := as.ecdf.Count(); m > 0 {
			eps := stats.DKWEpsilon(m, deltaRound)
			lo, hi := stats.QuantileCI(as.ecdf.Sorted(), sp.p, eps, sp.a, sp.b)
			intersect(&as.best, ci.Interval{
				Lo: lo, Hi: hi,
				Estimate: as.ecdf.Quantile(sp.p), Samples: m,
			})
		}

	case query.Var, query.Stddev:
		// Half the aggregate's round budget per mean track; the
		// variance interval below then holds at deltaRound jointly.
		sq := &cfg.tracks[sp.sq-1]
		intersect(&as.bestAvg, avgTrack(&tracks[sp.x-1].state, sp.a, sp.b, mv, r, cfg, deltaRound/2))
		intersect(&as.bestSq, avgTrack(&tracks[sp.sq-1].state, sq.a, sq.b, mv, r, cfg, deltaRound/2))
		intersect(&as.best, varFrom(as.bestAvg, as.bestSq, sp.varCap()))

	case query.CountDistinct:
		intersect(&as.bestCount, viewCountInterval(mv, r, cfg, deltaRound))
		// Every observed code is certain: d is a deterministic lower
		// bound. Unseen distinct values are capped both by the unseen
		// codes of the dictionary and by the view rows not yet observed
		// under the (1−δ′) view-size upper bound.
		d := float64(as.distinct)
		unseenRows := math.Max(0, math.Floor(as.bestCount.Hi)-float64(mv))
		unseenCodes := float64(sp.dictSize) - d
		intersect(&as.best, ci.Interval{
			Lo:       d,
			Hi:       d + math.Min(unseenRows, unseenCodes),
			Estimate: d,
			Samples:  mv,
		})
	}
}

// viewCountInterval is the per-round view-size interval: exact when N
// is known (the view is the whole scramble), Lemma 5 otherwise.
func viewCountInterval(mv, r int, cfg *roundConfig, delta float64) ci.Interval {
	if cfg.knownN {
		return ci.Interval{
			Lo: float64(cfg.bigR), Hi: float64(cfg.bigR),
			Estimate: float64(cfg.bigR), Samples: r,
		}
	}
	return countInterval(r, cfg.bigR, mv, delta)
}

// finalizeExact collapses the intervals onto the exact answers once the
// whole view has been observed (covered == R). Mean-track intervals
// keep a tiny slack covering worst-case floating-point summation error
// — (n−1)·u·Σ|x| for naive summation — so the mathematical truth is
// still enclosed regardless of accumulation order; order statistics and
// distinct counts are exact integers/selections and collapse to points.
func (gs *groupState) finalizeExact(specs []aggSpec, bigR int) {
	gs.exact = true
	cnt := float64(gs.mv)
	const ulp = 0x1p-52
	for i := range specs {
		sp := &specs[i]
		as := &gs.aggs[i]
		if sp.twin > 0 {
			*as = gs.aggs[sp.twin-1]
			continue
		}
		as.bestCount = ci.Interval{Lo: cnt, Hi: cnt, Estimate: cnt, Samples: bigR}
		switch sp.kind {
		case query.Count:
			// bestCount above is the answer.
		case query.Median, query.Percentile:
			if gs.mv > 0 {
				q := as.ecdf.Quantile(sp.p)
				as.best = ci.Interval{Lo: q, Hi: q, Estimate: q, Samples: gs.mv}
			} else {
				as.best = ci.Interval{Samples: gs.mv}
			}
		case query.CountDistinct:
			d := float64(as.distinct)
			as.best = ci.Interval{Lo: d, Hi: d, Estimate: d, Samples: gs.mv}
		case query.Var, query.Stddev:
			x, sq := &gs.tracks[sp.x-1], &gs.tracks[sp.sq-1]
			as.bestAvg = exactMean(x.sum, x.absSum, gs.mv, cnt*ulp*x.absSum)
			as.bestSq = exactMean(sq.sum, sq.absSum, gs.mv, cnt*ulp*sq.absSum)
			as.best = varFrom(as.bestAvg, as.bestSq, sp.varCap())
		default: // Avg, Sum
			x := &gs.tracks[sp.x-1]
			sumSlack := cnt * ulp * x.absSum
			as.bestAvg = exactMean(x.sum, x.absSum, gs.mv, sumSlack)
			as.bestSum = ci.Interval{Lo: x.sum - sumSlack, Hi: x.sum + sumSlack, Estimate: x.sum, Samples: gs.mv}
		}
	}
}

// exactMean builds the collapsed-with-float-slack mean interval of a
// fully observed view.
func exactMean(sum, absSum float64, mv int, sumSlack float64) ci.Interval {
	mean, meanSlack := 0.0, 0.0
	if mv > 0 {
		mean = sum / float64(mv)
		meanSlack = sumSlack / float64(mv)
	}
	return ci.Interval{Lo: mean - meanSlack, Hi: mean + meanSlack, Estimate: mean, Samples: mv}
}
