package ci

import (
	"math"
	"testing"
)

// nanBounder simulates a buggy custom bounder whose bounds are NaN.
type nanBounder struct{}

func (nanBounder) Name() string    { return "nan" }
func (nanBounder) NewState() State { return &nanState{} }

type nanState struct{ m int }

func (s *nanState) Update(float64)           { s.m++ }
func (s *nanState) UpdateBatch(vs []float64) { s.m += len(vs) }
func (s *nanState) Count() int               { return s.m }
func (s *nanState) Estimate() float64        { return math.NaN() }
func (s *nanState) Lower(Params) float64     { return math.NaN() }
func (s *nanState) Upper(Params) float64     { return math.NaN() }

func TestBoundIntervalNaNDegradesToTrivial(t *testing.T) {
	s := nanBounder{}.NewState()
	s.Update(1)
	iv := BoundInterval(s, Params{A: -2, B: 7, N: 100, Delta: 0.05})
	if iv.Lo != -2 || iv.Hi != 7 {
		t.Errorf("NaN bounds not degraded to trivial: [%v,%v]", iv.Lo, iv.Hi)
	}
	if math.IsNaN(iv.Width()) {
		t.Error("width is NaN")
	}
}
