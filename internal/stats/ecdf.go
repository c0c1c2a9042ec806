package stats

import "sort"

// ECDF is an empirical cumulative distribution function over a sample.
// It retains the full sample (O(m) memory), which is what the
// Anderson/DKW bounder requires (paper Table 2).
type ECDF struct {
	sorted  []float64
	nsorted int       // sorted[:nsorted] is in order; the rest is as appended
	tail    []float64 // ensureSorted's merge scratch
}

// AddAll appends a batch of observations.
func (e *ECDF) AddAll(xs []float64) { e.sorted = append(e.sorted, xs...) }

// Count returns the number of observations.
func (e *ECDF) Count() int { return len(e.sorted) }

// ensureSorted puts the sample in sort.Float64s order at the cost of
// what was appended since the last call, not of the whole sample: the
// tail is sorted alone and merged, from the back, into the sorted prefix.
func (e *ECDF) ensureSorted() {
	p := e.nsorted
	if p == len(e.sorted) {
		return
	}
	sort.Float64s(e.sorted[p:])
	e.nsorted = len(e.sorted)
	less := func(x, y float64) bool { return x < y || (x != x && y == y) } // sort.Float64s's order: NaNs first
	if p == 0 || !less(e.sorted[p], e.sorted[p-1]) {
		return
	}
	e.tail = append(e.tail[:0], e.sorted[p:]...)
	i, k := p-1, len(e.sorted)-1
	for j := len(e.tail) - 1; j >= 0; k-- {
		if i >= 0 && less(e.tail[j], e.sorted[i]) {
			e.sorted[k] = e.sorted[i]
			i--
		} else {
			e.sorted[k] = e.tail[j]
			j--
		}
	}
}

// Quantile returns the smallest sample value v with F̂(v) ≥ q, clamping q
// to (0,1]. It panics on an empty sample.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		panic("stats: ECDF.Quantile on empty sample")
	}
	e.ensureSorted()
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	i := int(q*float64(len(e.sorted))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(e.sorted) {
		i = len(e.sorted) - 1
	}
	return e.sorted[i]
}

// Sorted returns the sorted sample. The returned slice is owned by the
// ECDF and must not be modified.
func (e *ECDF) Sorted() []float64 {
	e.ensureSorted()
	return e.sorted
}

// MeanBelowRank returns the average of the k smallest observations.
// It panics if k is out of range.
func (e *ECDF) MeanBelowRank(k int) float64 {
	if k <= 0 || k > len(e.sorted) {
		panic("stats: MeanBelowRank rank out of range")
	}
	e.ensureSorted()
	sum := 0.0
	for _, v := range e.sorted[:k] {
		sum += v
	}
	return sum / float64(k)
}
