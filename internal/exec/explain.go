package exec

import (
	"fmt"
	"math"

	"fastframe/internal/query"
	"fastframe/internal/table"
)

// RangePruneStat describes one float-range atom's zone-map prunability
// against a concrete table: of NumBlocks scramble blocks, Possible can
// contain a value inside the range (the rest are skipped unfetched).
type RangePruneStat struct {
	Column    string
	Lo, Hi    float64
	Possible  int
	NumBlocks int
}

// String renders "range DepDelay >= 120: 312 of 4000 blocks possible".
func (s RangePruneStat) String() string {
	var cond string
	switch {
	case math.IsInf(s.Hi, 1):
		cond = fmt.Sprintf("%s >= %.6g", s.Column, s.Lo)
	case math.IsInf(s.Lo, -1):
		cond = fmt.Sprintf("%s <= %.6g", s.Column, s.Hi)
	default:
		cond = fmt.Sprintf("%s ∈ [%.6g, %.6g]", s.Column, s.Lo, s.Hi)
	}
	return fmt.Sprintf("range %s: %d of %d blocks possible", cond, s.Possible, s.NumBlocks)
}

// ScanPruneStats is the static block-pruning prospect of a compiled
// predicate: the per-range-atom zone-map stats and the combined mask
// (categorical bitmaps ∧ IN-set unions ∧ zone maps).
type ScanPruneStats struct {
	// Ranges holds one entry per float-range atom, in predicate order.
	Ranges []RangePruneStat
	// Possible and NumBlocks describe the combined mask: a scan of this
	// predicate fetches at most Possible of NumBlocks blocks. Empty
	// views report 0. Masked reports whether any static mask exists at
	// all (false means every block must be visited).
	Possible  int
	NumBlocks int
	Masked    bool
	// Empty is set when the view is provably empty (an atom references
	// a value absent from the dictionary).
	Empty bool
}

// PredicateScanStats compiles a predicate against a table and reports
// its static block prunability — the numbers Explain renders so users
// can see how much of the scramble a WHERE clause rules out before any
// block is fetched. It visits every block, which a scan never does.
func PredicateScanStats(t *table.Table, p query.Predicate) (ScanPruneStats, error) {
	cp, err := compilePredicate(t, p, newColSet(t))
	if err != nil {
		return ScanPruneStats{}, err
	}
	nb := t.Layout().NumBlocks()
	st := ScanPruneStats{
		NumBlocks: nb,
		Masked:    cp.empty || cp.blockMask != nil,
		Empty:     cp.empty,
	}
	for b := 0; b < nb; b++ {
		if cp.blockPossible(b) {
			st.Possible++
		}
	}
	for i, r := range cp.ranges {
		possible := 0
		for b := 0; b < nb; b++ {
			if cp.zones[i].Possible(b, r.Lo, r.Hi) {
				possible++
			}
		}
		st.Masked = st.Masked || possible < nb
		st.Ranges = append(st.Ranges, RangePruneStat{
			Column:    r.Column,
			Lo:        r.Lo,
			Hi:        r.Hi,
			Possible:  possible,
			NumBlocks: nb,
		})
	}
	return st, nil
}
