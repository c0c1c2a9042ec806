package core

import (
	"math"
	"testing"
	"testing/quick"

	"fastframe/internal/ci"
)

// TestQuickRangeTrimInvariants checks, for arbitrary bounded samples:
// the trimmed bounds stay ordered around the full-sample estimate, the
// estimate equals the plain mean, and the lower bound never exceeds the
// plain bounder's lower bound by more than float noise when the sample
// max hits the catalog bound (nothing to trim ⇒ no unfair advantage).
func TestQuickRangeTrimInvariants(t *testing.T) {
	inner := ci.EmpiricalBernsteinSerfling{}
	f := func(raw []byte) bool {
		if len(raw) < 3 {
			return true
		}
		s := RangeTrim{Inner: inner}.NewState()
		sum := 0.0
		for _, b := range raw {
			v := float64(b) / 255
			s.Update(v)
			sum += v
		}
		mean := sum / float64(len(raw))
		if math.Abs(s.Estimate()-mean) > 1e-9 {
			return false
		}
		p := ci.Params{A: 0, B: 1, N: 10 * len(raw), Delta: 1e-6}
		lo, hi := s.Lower(p), s.Upper(p)
		return lo <= s.Estimate()+1e-12 && hi >= s.Estimate()-1e-12 && lo >= p.A && hi <= p.B
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickRoundDeltaBudget: arbitrary budgets telescope below δ for
// any prefix of rounds.
func TestQuickRoundDeltaBudget(t *testing.T) {
	f := func(deltaSeed uint8, rounds uint8) bool {
		delta := math.Pow(10, -1-float64(deltaSeed%15))
		sum := 0.0
		for k := 1; k <= int(rounds)+1; k++ {
			d := RoundDelta(delta, k)
			if d <= 0 || d > delta {
				return false
			}
			sum += d
		}
		return sum <= delta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
