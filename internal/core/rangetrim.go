// Package core implements the primary contribution of Macke et al.
// (ICDE 2021): the RangeTrim meta-bounder that eliminates phantom outlier
// sensitivity (PHOS) from a range-based SSI error bounder (Algorithms
// 4 & 6, Theorem 2), and the OptStop optional-stopping meta-algorithm
// (Algorithm 5, Theorem 4) with the look schedule (Looks) the query
// engine shares. RangeTrim's recurrence and trimmed bounds live in
// package ci (ci.Trim), in the one concrete ci.State every bounder
// shares; RangeTrim is the bounder that selects them.
package core

import "fastframe/internal/ci"

// RangeTrim wraps an inner range-based bounder and "asymmetrizes" it:
// the confidence lower bound is computed over the sample minus its
// maximum, against range [a, max S], and the upper bound over the sample
// minus its minimum, against range [min S, b]. By Lemma 4 / Corollary 1
// of the paper, conditioned on max S the rest of the sample is a uniform
// without-replacement sample from D ∩ (−∞, max S), so the trimmed lower
// bound is a valid lower bound for AVG(D) — and it no longer depends on
// b at all, eliminating PHOS. Dataset size passes through as N−1.
//
// RangeTrim preserves the inner bounder's PMA status: wrapping
// Hoeffding–Serfling retains PMA; wrapping empirical Bernstein–Serfling
// yields the paper's headline bounder with neither pathology.
type RangeTrim struct {
	// Inner is the wrapped bounder: ci.HoeffdingSerfling or
	// ci.EmpiricalBernsteinSerfling. ci.AndersonDKW has no PHOS to remove.
	Inner ci.Bounder
}

// Name implements ci.Bounder, reporting "<inner>+rt".
func (rt RangeTrim) Name() string { return rt.Inner.Name() + "+rt" }

// NewState implements ci.Bounder: Inner's state with RangeTrim's sides
// (ci.Trim). It panics with "core: RangeTrim needs a moment-based inner
// bounder, not <name>" for any other Inner — Anderson, or a RangeTrim.
func (rt RangeTrim) NewState() ci.State {
	s, ok := ci.Trim(rt.Inner.NewState())
	if !ok {
		panic("core: RangeTrim needs a moment-based inner bounder, not " + rt.Inner.Name())
	}
	return s
}
