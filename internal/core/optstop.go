package core

import (
	"math"

	"fastframe/internal/ci"
)

// deltaDecay is 6/π², the normalizer that makes Σ_k δ/k² telescope to δ
// across optional-stopping rounds (Theorem 4).
var deltaDecay = 6 / (math.Pi * math.Pi)

// RoundDelta returns the per-round error budget δ′ = (6/π²)·δ/k² of
// round k (1-based), before the look schedule takes the ramp's share of
// it. Summed over all k ≥ 1 this equals δ, so recomputing the interval
// after every round keeps the overall failure probability below δ.
func RoundDelta(delta float64, k int) float64 {
	if k < 1 {
		k = 1
	}
	return deltaDecay * delta / (float64(k) * float64(k))
}

// The look schedule. An interval is recomputed — a look — when the rows
// covered reach R/16, R/8, R/4 and R/2 (the ramp) and then every full
// round R, 2R, 3R …, R being the round size (the paper's B, §4.2).
// Theorem 4 leaves the positions free as long as the looks' budgets sum
// to at most δ: the four ramp looks share rampShare·δ equally and full
// round j keeps 1−rampShare of its k⁻² share. 1/8, because that adds
// ln(8/7) = 0.13 to a full round's log(1/δ_k) — 1.3 % of it at δ = 0.01,
// 0.2 % at 1e-15 — and still leaves each ramp look δ/32. R/16, because
// scanning to the first look then costs a third of what a statement
// spends before and after its scan (≈ 0.03 against ≈ 0.1 ms at the
// default R, bench/README.md): a look any earlier shows nothing sooner.
const (
	rampLooks = 4
	rampShare = 1.0 / 8
)

// Looks walks the look schedule of one scan. OptStop and the query
// engine both close their looks through one, so they cannot disagree on
// a position or a budget. The zero value is not usable.
type Looks struct {
	roundRows int
	// schedule, the full rounds' shares, always holds RoundDelta. A direct
	// call would inline it and shrink Close, which shifts the scan path
	// linked after it within its 64-byte lines: +10–24 % on time metrics.
	schedule    func(delta float64, k int) float64
	ramp, round int // ramp looks and full rounds closed
	next        int
}

// NewLooks returns the schedule for rounds of roundRows ≥ 1 rows.
func NewLooks(roundRows int) Looks {
	l := Looks{roundRows: roundRows, schedule: RoundDelta}
	l.next = l.after(0)
	return l
}

// after returns the first position of the schedule past covered rows. A
// ramp position that is zero (R < 16) or that an earlier look already
// covered (one block can span several) is passed over, its share unspent.
func (l *Looks) after(covered int) int {
	for s := rampLooks; s > 0; s-- {
		if p := l.roundRows >> s; p > covered {
			return p
		}
	}
	return (covered/l.roundRows + 1) * l.roundRows
}

// Next returns the covered-row count at which the next look closes.
func (l *Looks) Next() int { return l.next }

// Closed returns the number of looks closed.
func (l *Looks) Closed() int { return l.ramp + l.round }

// Close records a look taken with covered rows behind it and returns its
// share of the budget delta: a ramp look's before R rows, the next full
// round's from there on — or once the four ramp shares are spent, which
// takes looks forced ahead of Next (they leave the positions alone).
func (l *Looks) Close(covered int, delta float64) float64 {
	l.next = l.after(covered)
	if covered < l.roundRows && l.ramp < rampLooks {
		l.ramp++
		return rampShare / rampLooks * delta
	}
	l.round++
	return (1 - rampShare) * l.schedule(delta, l.round)
}

// OptStop implements Algorithm 5: sequentially-valid confidence intervals
// under optional stopping, usable with any ci.Bounder (including
// RangeTrim wrappers). Samples stream in via Observe; at every position
// of the look schedule (Looks) a look closes and the running interval
// intersection [max_k L_k, min_k R_k] tightens. The interval returned by
// Interval is valid at every look simultaneously with probability at
// least 1−δ, so any data-dependent stopping rule is safe.
//
// The zero value is not usable; construct with NewOptStop.
type OptStop struct {
	state  ci.State
	params ci.Params
	looks  Looks
	bestLo float64
	bestHi float64
}

// DefaultBatchSize is the paper's B = 40000 samples between interval
// recomputations (§4.2): the round size R of the look schedule.
const DefaultBatchSize = 40000

// NewOptStop returns an OptStop driving the given bounder. p.Delta is the
// TOTAL error budget across all looks. batchSize is the round size R of
// the look schedule; batchSize ≤ 0 selects DefaultBatchSize.
func NewOptStop(b ci.Bounder, p ci.Params, batchSize int) *OptStop {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return &OptStop{
		state:  b.NewState(),
		params: p,
		looks:  NewLooks(batchSize),
		bestLo: p.A,
		bestHi: p.B,
	}
}

// Observe incorporates one sample and reports whether a look just
// closed (i.e. the interval was recomputed and may have tightened).
func (o *OptStop) Observe(v float64) (roundClosed bool) {
	o.state.Update(v)
	if o.state.Count() >= o.looks.Next() {
		o.CloseRound()
		return true
	}
	return false
}

// CloseRound forces a look ahead of the schedule: it spends the next
// look's budget and updates the running interval intersection. Safe to
// call at any time; the extra look only spends budget.
func (o *OptStop) CloseRound() {
	p := o.params
	p.Delta = o.looks.Close(o.state.Count(), p.Delta)
	iv := ci.BoundInterval(o.state, p)
	if iv.Lo > o.bestLo {
		o.bestLo = iv.Lo
	}
	if iv.Hi < o.bestHi {
		o.bestHi = iv.Hi
	}
}

// Samples returns the number of samples observed.
func (o *OptStop) Samples() int { return o.state.Count() }

// Interval returns the running intersection [max_k L_k, min_k R_k],
// which is a (1−δ) confidence interval for the dataset mean at every
// point in time. Before the first round it is the trivial [A,B].
func (o *OptStop) Interval() ci.Interval {
	lo, hi := o.bestLo, o.bestHi
	if lo > hi {
		// The intersection collapsed; degenerate onto the estimate.
		mid := o.state.Estimate()
		lo, hi = mid, mid
	}
	return ci.Interval{Lo: lo, Hi: hi, Estimate: o.state.Estimate(), Samples: o.state.Count()}
}
