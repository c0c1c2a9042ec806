package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"fastframe/internal/ci"
)

// walkLooks drives one schedule the way a scan does — coverage grows by
// whole blocks and a look closes once it has reached Next — with a
// forced look (OptStop.CloseRound) ahead of every forceEvery-th one, and
// checks what every user of the schedule relies on: a position lies
// strictly past the rows the previous look covered (so positions strictly
// increase and no rows are looked at twice unforced), a look before R
// rows spends a ramp share (δ/32) and there are at most four of those,
// every other look spends 7/8 of the next round's k⁻² share, and the
// shares spent never sum past delta. It returns the positions it closed
// at.
func walkLooks(delta float64, roundRows, block, forceEvery, looks int) (positions []int, err error) {
	l := NewLooks(roundRows)
	covered, spent, ramp, full, prevNext := 0, 0.0, 0, 0, 0
	closeAt := func() error {
		next := l.Next()
		d := l.Close(covered, delta)
		if !(d > 0) {
			return fmt.Errorf("look at %d rows: budget %v", covered, d)
		}
		spent += d
		switch {
		case covered < roundRows && ramp < rampLooks:
			if ramp++; d != delta/32 {
				return fmt.Errorf("ramp look %d at %d rows (R = %d) spends %v, want δ/32", ramp, covered, roundRows, d)
			}
		case d != 7.0/8*RoundDelta(delta, full+1):
			return fmt.Errorf("look at %d rows (R = %d) after %d ramp looks and %d rounds spends %v", covered, roundRows, ramp, full, d)
		default:
			full++
		}
		if l.Next() <= covered || l.Next() < next {
			return fmt.Errorf("after a look at %d rows (due at %d) the next is due at %d", covered, next, l.Next())
		}
		if l.Closed() != ramp+full {
			return fmt.Errorf("Closed = %d after %d ramp looks and %d rounds", l.Closed(), ramp, full)
		}
		return nil
	}
	for i := 0; i < looks; i++ {
		if l.Next() <= prevNext {
			return nil, fmt.Errorf("position %d follows %d", l.Next(), prevNext)
		}
		prevNext = l.Next()
		if forceEvery > 0 && i%forceEvery == 0 {
			if err := closeAt(); err != nil {
				return nil, err
			}
		}
		covered += (l.Next() - covered + block - 1) / block * block
		if len(positions) < 8 {
			positions = append(positions, covered)
		}
		if err := closeAt(); err != nil {
			return nil, err
		}
	}
	if spent > delta {
		return nil, fmt.Errorf("budgets sum to %v, past delta = %v", spent, delta)
	}
	return positions, nil
}

// TestLooksSchedule pins the positions on the shapes the engine meets
// and runs the walkLooks properties over 10⁶ looks and random shapes.
func TestLooksSchedule(t *testing.T) {
	for _, tc := range []struct {
		roundRows, block int
		want             []int
	}{
		{40_000, 25, []int{2500, 5000, 10_000, 20_000, 40_000, 80_000, 120_000, 160_000}},
		{1000, 25, []int{75, 125, 250, 500, 1000, 2000, 3000, 4000}}, // 62 rows are three blocks
		{16, 1, []int{1, 2, 4, 8, 16, 32, 48, 64}},
		{15, 1, []int{1, 3, 7, 15, 30, 45, 60, 75}}, // 15/16 = 0 is no position
		{1, 1, []int{1, 2, 3, 4, 5, 6, 7, 8}},
		{4000, 3000, []int{3000, 6000, 9000, 12_000, 18_000, 21_000, 24_000, 30_000}}, // one block passes the whole ramp
		{40_000, 6000, []int{6000, 12_000, 24_000, 42_000, 84_000, 120_000, 162_000, 204_000}},
		{10, 25, []int{25, 50, 75, 100, 125, 150, 175, 200}}, // R below a block: a look per block, as ever
	} {
		got, err := walkLooks(0.01, tc.roundRows, tc.block, 0, 8)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("R = %d, %d-row blocks: looks at %v (%v), want %v", tc.roundRows, tc.block, got, err, tc.want)
		}
	}
	for _, delta := range []float64{1, 0.01, 1e-15, 1e-300} {
		for _, roundRows := range []int{1, 7, 40_000, 1 << 30} {
			if _, err := walkLooks(delta, roundRows, 25, 0, 1_000_000); err != nil {
				t.Errorf("δ = %v, R = %d: %v", delta, roundRows, err)
			}
		}
	}
	rng := rand.New(rand.NewPCG(18, 1))
	for i := 0; i < 300; i++ {
		delta, roundRows := math.Pow(10, -16*rng.Float64()), 1+rng.IntN(1<<rng.IntN(22))
		block, force := 1+rng.IntN(1<<rng.IntN(14)), rng.IntN(4)
		if _, err := walkLooks(delta, roundRows, block, force, 2000); err != nil {
			t.Errorf("δ = %v, R = %d, %d-row blocks, forced every %d: %v", delta, roundRows, block, force, err)
		}
	}
}

// FuzzLooksBudget: the walkLooks properties for any δ, round size, block
// size and pattern of forced looks.
func FuzzLooksBudget(f *testing.F) {
	f.Add(0.01, 40_000, 25, 0)
	f.Add(1e-15, 1, 3000, 1)
	f.Add(1.0, 15, 1, 3)
	f.Fuzz(func(t *testing.T, delta float64, roundRows, block, forceEvery int) {
		if !(delta > 0 && delta <= 1) || roundRows < 1 || roundRows > 1<<32 || block < 1 || block > 1<<32 || forceEvery < 0 {
			t.Skip()
		}
		if _, err := walkLooks(delta, roundRows, block, forceEvery, 5000); err != nil {
			t.Fatalf("δ = %v, R = %d, %d-row blocks, forced every %d: %v", delta, roundRows, block, forceEvery, err)
		}
	})
}

// TestLookBudgetsSum: the ramp's four shares and the full rounds' sum to
// delta from below, approaching it.
func TestLookBudgetsSum(t *testing.T) {
	const delta = 1e-6
	l, sum := NewLooks(16), 0.0
	for covered := 1; covered <= 16*2_000_000; covered = l.Next() {
		sum += l.Close(covered, delta)
	}
	if l.ramp != rampLooks || sum > delta || sum < 0.999999*delta {
		t.Errorf("%d ramp looks and %d rounds spend %v, want just under %v", l.ramp, l.round, sum, delta)
	}
}

// TestOptStopClosesAtRampPositions: OptStop closes at exactly the
// schedule's positions, each look at the schedule's budget, and a forced
// look spends a budget without moving them.
func TestOptStopClosesAtRampPositions(t *testing.T) {
	p := ci.Params{A: 0, B: 1, N: 100_000, Delta: 0.01}
	b := ci.HoeffdingSerfling{}
	o, ref := NewOptStop(b, p, 1600), b.NewState()
	rng := rand.New(rand.NewPCG(4, 4))
	var closed []int
	for i := 1; i <= 5000; i++ {
		v := rng.Float64()
		ref.Update(v)
		if i == 150 {
			o.CloseRound() // forced, between the looks at 100 and 200
		}
		if !o.Observe(v) {
			continue
		}
		closed = append(closed, i)
		if i == 100 {
			q := p
			q.Delta = p.Delta / 32
			if got, want := o.Interval(), ci.BoundInterval(ref, q); got.Lo != want.Lo || got.Hi != want.Hi {
				t.Errorf("first look: [%v, %v], want the bound at ρ·δ/4: [%v, %v]", got.Lo, got.Hi, want.Lo, want.Hi)
			}
		}
	}
	if want := []int{100, 200, 400, 800, 1600, 3200, 4800}; !reflect.DeepEqual(closed, want) {
		t.Errorf("looks closed at %v, want %v", closed, want)
	}
	// Five looks before 1600 rows: the forced one took a ramp share, so
	// the look at 800 already spent the first full round's.
	if o.looks.ramp != rampLooks || o.looks.round != 4 || o.looks.Closed() != 8 {
		t.Errorf("%d ramp looks, %d rounds, Closed() = %d; want 4, 4, 8", o.looks.ramp, o.looks.round, o.looks.Closed())
	}
}
