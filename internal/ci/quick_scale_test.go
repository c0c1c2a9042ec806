package ci_test

import (
	"math"
	"testing"
	"testing/quick"

	. "fastframe/internal/ci"
	"fastframe/internal/core"
)

// TestQuickBoundsEncloseEstimate: for every bounder, bare and — the
// moment-based ones — wrapped in RangeTrim, and arbitrary samples, Lower and Upper are finite and
// Lower ≤ Estimate ≤ Upper, at N log-uniform up to 1e9 and δ
// log-uniform down to 1e−30. The sides are checked raw: BoundInterval
// clamps a NaN side to [A, B], which would hide it.
func TestQuickBoundsEncloseEstimate(t *testing.T) {
	bounders := []Bounder{AndersonDKW{}}
	for _, b := range []Bounder{HoeffdingSerfling{}, EmpiricalBernsteinSerfling{}} {
		bounders = append(bounders, b, core.RangeTrim{Inner: b})
	}
	unit := func(seed uint32) float64 { return float64(seed) / math.MaxUint32 }
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for _, b := range bounders {
		f := func(raw []byte, deltaSeed, nSeed uint32) bool {
			if len(raw) == 0 {
				return true
			}
			s := b.NewState()
			for _, v := range raw {
				s.Update(float64(v) / 255)
			}
			delta := math.Pow(10, -1-29*unit(deltaSeed))
			n := max(len(raw), int(math.Exp(unit(nSeed)*math.Log(1e9))))
			p := Params{A: 0, B: 1, N: n, Delta: delta}
			lo, hi, est := s.Lower(p), s.Upper(p), s.Estimate()
			return finite(lo) && finite(hi) && lo <= est+1e-12 && hi >= est-1e-12
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
			t.Errorf("%s: %v", b.Name(), err)
		}
	}
}
