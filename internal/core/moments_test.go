package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"fastframe/internal/ci"
	"fastframe/internal/stats"
)

// allBounders is every ci.Bounder in the tree: the three bare ones and
// RangeTrim over each moment-based one (the fused loop).
func allBounders() []ci.Bounder {
	return []ci.Bounder{
		ci.HoeffdingSerfling{}, ci.EmpiricalBernsteinSerfling{}, ci.AndersonDKW{},
		RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}},
		RangeTrim{Inner: ci.HoeffdingSerfling{}},
	}
}

// checkSplitInvariance feeds xs to three states of every bounder — one
// value at a time, as one batch, and cut into the given batch sizes
// (cycled; zeros make empty batches) — and requires bit-identical
// Lower, Upper, Estimate and Count: a state is a function of the
// sequence, never of the batch boundaries.
func checkSplitInvariance(t *testing.T, xs []float64, sizes []int) {
	t.Helper()
	p := ci.Params{A: -1000, B: 1000, N: 10*len(xs) + 1, Delta: 1e-6}
	for _, b := range allBounders() {
		one, whole, cut := b.NewState(), b.NewState(), b.NewState()
		for _, x := range xs {
			one.Update(x)
		}
		whole.UpdateBatch(xs)
		for rest, i, fed := xs, 0, 0; len(rest) > 0; i++ {
			if len(sizes) == 0 || (i >= len(sizes) && fed == 0) { // no cuts, or all of them empty
				cut.UpdateBatch(rest)
				break
			}
			k := min(len(rest), sizes[i%len(sizes)])
			cut.UpdateBatch(rest[:k])
			rest, fed = rest[k:], fed+k
		}
		for name, s := range map[string]ci.State{"whole": whole, "cut": cut} {
			same := s.Count() == one.Count() &&
				math.Float64bits(s.Estimate()) == math.Float64bits(one.Estimate()) &&
				math.Float64bits(s.Lower(p)) == math.Float64bits(one.Lower(p)) &&
				math.Float64bits(s.Upper(p)) == math.Float64bits(one.Upper(p))
			if !same {
				t.Fatalf("%s, n=%d, sizes=%v: %s differs from one-at-a-time: est %v/%v lower %v/%v upper %v/%v",
					b.Name(), len(xs), sizes, name, s.Estimate(), one.Estimate(), s.Lower(p), one.Lower(p), s.Upper(p), one.Upper(p))
			}
		}
	}
}

// TestMomentsSplitInvariance walks lengths and cuts around the counts at
// which the accumulators re-centre (powers of two).
func TestMomentsSplitInvariance(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = math.Round(rng.NormFloat64()*200) / 4 // ties and repeats too
	}
	xs[0], xs[17] = 900, -950 // a far first value, a late new minimum
	for _, n := range []int{0, 1, 2, 3, 4, 5, 15, 16, 17, 63, 64, 65, 129, 256, 257, 300} {
		for _, sizes := range [][]int{nil, {1}, {0, 1}, {2}, {3, 0, 0, 5}, {7}, {15, 1}, {16}, {17}, {64, 1, 64}, {255}} {
			checkSplitInvariance(t, xs[:n], sizes)
		}
	}
}

// FuzzMomentsSplit is the same property over arbitrary values and cuts.
func FuzzMomentsSplit(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{1, 0, 3})
	f.Add([]byte{255, 0, 255, 0, 128, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 200}, []byte{16, 1})
	f.Add([]byte{9}, []byte{})
	f.Fuzz(func(t *testing.T, raw, cuts []byte) {
		xs := make([]float64, len(raw))
		for i, b := range raw {
			xs[i] = (float64(b) - 128) * 7.3
		}
		sizes := make([]int, len(cuts))
		for i, c := range cuts {
			sizes[i] = int(c) % 40
		}
		checkSplitInvariance(t, xs, sizes)
	})
}

// welfordTrim is Bernstein+RangeTrim as it was before the moments became
// shifted sums: Welford's recurrence per side, one value at a time. It
// exists as the reference TestBernsteinRTMatchesWelford compares against.
type welfordTrim struct {
	left, right stats.Welford
	m           int
	min, max    float64
}

func (s *welfordTrim) update(v float64) {
	if s.m == 0 {
		s.min, s.max = v, v
	} else {
		s.left.Add(math.Min(v, s.max))
		s.right.Add(math.Max(v, s.min))
		s.min, s.max = math.Min(s.min, v), math.Max(s.max, v)
	}
	s.m++
}

func (s *welfordTrim) interval(p ci.Params) (lo, hi float64) {
	eps := func(w *stats.Welford, a, b float64) float64 {
		fm := float64(w.Count())
		logTerm := stats.LogKOver(5, p.Delta/2)
		kappa := 7.0/3.0 + 3.0/math.Sqrt2
		return w.Stddev()*math.Sqrt(2*stats.BernsteinRho(w.Count(), p.N-1)*logTerm/fm) + kappa*(b-a)*logTerm/fm
	}
	lo = math.Max(p.A, s.left.Mean()-eps(&s.left, p.A, s.max))
	hi = math.Min(p.B, s.right.Mean()+eps(&s.right, s.min, p.B))
	return lo, hi
}

// TestBernsteinRTMatchesWelford: on sequences built to break a naive
// sum of squares, the headline bounder's interval endpoints stay within
// 1e-9 of the interval's width of the Welford-based ones.
func TestBernsteinRTMatchesWelford(t *testing.T) {
	n := 4_000_000
	if testing.Short() {
		n = 200_000
	}
	rng := rand.New(rand.NewPCG(17, 4))
	a, b := -1e9, 2e9
	seqs := map[string]func(i int) float64{
		"first-value-far-outlier": func(i int) float64 {
			if i == 0 {
				return 1e9
			}
			return rng.NormFloat64()
		},
		"offset-1e9-unit-noise": func(int) float64 { return 1e9 + rng.NormFloat64() },
		"constant":              func(int) float64 { return 1234.5678 },
		"alternating-extremes":  func(i int) float64 { return []float64{a, b}[i%2] },
	}
	p := ci.Params{A: a, B: b, N: 2 * n, Delta: 1e-9}
	batch := make([]float64, 1600)
	for name, gen := range seqs {
		st := RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}}.NewState()
		var ref welfordTrim
		for i := 0; i < n; {
			k := min(len(batch), n-i)
			for j := range batch[:k] {
				batch[j] = gen(i + j)
				ref.update(batch[j])
			}
			st.UpdateBatch(batch[:k])
			i += k
		}
		iv := ci.BoundInterval(st, p)
		lo, hi := ref.interval(p)
		tol := 1e-9 * (hi - lo)
		if math.Abs(iv.Lo-lo) > tol || math.Abs(iv.Hi-hi) > tol {
			t.Errorf("%s: [%v, %v], Welford-based [%v, %v] (width %v)", name, iv.Lo, iv.Hi, lo, hi, hi-lo)
		}
	}
}
