package fastframe

import (
	"context"
	"fmt"
	"math"
	"testing"

	"fastframe/internal/ci"
	"fastframe/internal/exact"
	"fastframe/internal/flights"
	"fastframe/internal/query"
)

// paperBounders are the four bounders of the paper's Table 5, in its
// column order. The bounder micro-benchmarks in bench_test.go run them too.
var paperBounders = []Bounder{Hoeffding, HoeffdingRT, Bernstein, BernsteinRT}

// TestPaperClaims checks the paper's evaluation claims (§5) in its own
// hardware-independent metric, blocks fetched, on a 1 M-row Flights table
// (seed 42) at the paper's δ = 1e−15 and R = 40 000, one subtest per
// table or figure. Queries run from fixed starting blocks, and every
// returned interval must hold the reference interpreter's value.
//
//   - Table2: the public bounders have the PMA/PHOS the paper gives them.
//   - Table5: over F-q1…F-q9, RangeTrim never costs blocks (X+RT ≤ X for
//     Hoeffding and Bernstein); the headline configuration never loses to
//     the baseline (Bernstein+RT ≤ Hoeffding); and on F-q1, F-q2 and F-q4
//     the bounders separate strictly (Bernstein+RT < Bernstein <
//     Hoeffding).
//   - Table6: active scanning (§4.3) never loses to Scan, and wins
//     outright on F-q2, F-q5 and F-q9, where decided groups leave blocks
//     to skip.
//   - Fig6: F-q1 over airports from the densest to the sparsest, where
//     Bernstein+RT never loses to Hoeffding and wins outright on the
//     three densest.
//   - Fig7a: F-q1 asked for a relative error ε achieves it under every
//     bounder.
//
// Two Table 5 orderings are not asserted. F-q5 runs close to exhaustion
// at this scale, and there Bernstein reads more blocks than Hoeffding and
// Bernstein+RT more than Hoeffding+RT: from block 7 919, 39 995 vs
// 39 978 and 39 470 vs 38 747 of 40 000. At 4 M rows both hold at every
// start — from the same block Hoeffding 143 805, Hoeffding+RT 117 011,
// Bernstein 93 805 and Bernstein+RT 62 529 of 160 000 — but that run
// takes 35 s.
func TestPaperClaims(t *testing.T) {
	t.Run("Table2", func(t *testing.T) {
		want := map[Bounder][2]bool{ // {PMA, PHOS}
			Hoeffding:   {true, true},
			Bernstein:   {false, true},
			Anderson:    {true, false},
			HoeffdingRT: {true, false},
			BernsteinRT: {false, false},
		}
		for b, w := range want {
			impl, err := b.impl()
			if err != nil {
				t.Fatal(err)
			}
			if pma, phos := exhibitsPMA(impl), exhibitsPHOS(impl); pma != w[0] || phos != w[1] {
				t.Errorf("%s: (PMA, PHOS) = (%v, %v), want (%v, %v)", b, pma, phos, w[0], w[1])
			}
		}
	})

	tab, err := GenerateFlights(1_000_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	starts := []int{1, 2, 3, 4, 5}
	if testing.Short() {
		starts = starts[:1]
	}
	ctx := context.Background()
	reference := func(t *testing.T, q query.Query) *exact.Result {
		want, err := exact.Run(tab.t, q)
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	// run answers q from the s-th start, checks it against the reference
	// and returns the blocks it fetched.
	run := func(t *testing.T, q query.Query, want *exact.Result, s int, arm string, opts ...Option) int {
		res, err := tab.Query(ctx, QueryBuilder{q: q}, append(opts, WithStartBlock(s*7919%tab.NumBlocks()))...)
		if err != nil {
			t.Fatalf("start %d %s: %v", s, arm, err)
		}
		coversReference(t, fmt.Sprintf("start %d %s", s, arm), res, want)
		return res.BlocksFetched
	}
	claim := func(t *testing.T, holds bool, row, what string) {
		if !holds {
			t.Errorf("%s: %s", row, what)
		}
	}

	// Every subtest is parallel, and so is every shape within one: each
	// query runs on one goroutine, so two at a time keep the test inside
	// its budget on two cores.
	t.Run("Table5", func(t *testing.T) {
		t.Parallel()
		strict := map[string]bool{"F-q1": true, "F-q2": true, "F-q4": true}
		for _, q := range flights.DefaultQueries() {
			t.Run(q.Name, func(t *testing.T) {
				t.Parallel()
				want := reference(t, q)
				for _, s := range starts {
					var arms [4]int
					for i, b := range paperBounders {
						arms[i] = run(t, q, want, s, b.String(), WithBounder(b))
					}
					h, hrt, b, brt := arms[0], arms[1], arms[2], arms[3]
					row := fmt.Sprintf("start %d: Hoeffding %d, Hoeffding+RT %d, Bernstein %d, Bernstein+RT %d",
						s, h, hrt, b, brt)
					t.Log(row)
					claim(t, hrt <= h, row, "Hoeffding+RT fetched more than Hoeffding")
					claim(t, brt <= b, row, "Bernstein+RT fetched more than Bernstein")
					claim(t, brt <= h, row, "Bernstein+RT fetched more than Hoeffding")
					if strict[q.Name] {
						claim(t, brt < b && b < h, row, "not Bernstein+RT < Bernstein < Hoeffding")
					}
				}
			})
		}
	})

	t.Run("Table6", func(t *testing.T) {
		t.Parallel()
		activeWins := map[string]bool{"F-q2": true, "F-q5": true, "F-q9": true}
		for _, q := range flights.DefaultQueries() {
			t.Run(q.Name, func(t *testing.T) {
				t.Parallel()
				want := reference(t, q)
				for _, s := range starts {
					active := run(t, q, want, s, "Active")
					scan := run(t, q, want, s, "Scan", WithStrategy(ScanStrategy))
					row := fmt.Sprintf("start %d: Active %d, Scan %d", s, active, scan)
					t.Log(row)
					claim(t, active <= scan, row, "Active fetched more than Scan")
					if activeWins[q.Name] {
						claim(t, active < scan, row, "Active fetched no fewer than Scan")
					}
				}
			})
		}
	})

	t.Run("Fig6", func(t *testing.T) {
		t.Parallel()
		// Head to tail of the generator's roster: shares from ≈6.5 % down
		// to ≈0.014 % of the rows. From SFO on, every bounder reads every
		// block holding the airport at this scale; above it the bounders
		// separate.
		dense := map[string]bool{"ORD": true, "DFW": true, "DEN": true}
		for _, airport := range []string{"ORD", "DFW", "DEN", "SFO", "PHL", "DCA", "SMF", "FLL", "PSP"} {
			t.Run(airport, func(t *testing.T) {
				t.Parallel()
				q := flights.Q1(airport, 0.5)
				want := reference(t, q)
				for _, s := range starts {
					var arms [4]int
					for i, b := range paperBounders {
						arms[i] = run(t, q, want, s, b.String(), WithBounder(b))
					}
					row := fmt.Sprintf("start %d: Hoeffding %d, Hoeffding+RT %d, Bernstein %d, Bernstein+RT %d",
						s, arms[0], arms[1], arms[2], arms[3])
					t.Log(row)
					claim(t, arms[3] <= arms[0], row, "Bernstein+RT fetched more than Hoeffding")
					if dense[airport] {
						claim(t, arms[3] < arms[0], row, "Bernstein+RT fetched no fewer than Hoeffding")
					}
				}
			})
		}
	})

	t.Run("Fig7a", func(t *testing.T) {
		t.Parallel()
		g := reference(t, flights.Q1("ORD", 1)).Groups[0].Stats[0]
		for _, eps := range []float64{0.05, 0.1, 0.25, 0.5, 0.75, 1, 1.5, 2} {
			for _, b := range paperBounders {
				res, err := tab.Query(ctx, QueryBuilder{q: flights.Q1("ORD", eps)}, WithBounder(b), WithStartBlock(7919))
				if err != nil {
					t.Fatal(err)
				}
				if got := math.Abs(res.Groups[0].Answers[0].Estimate-g) / math.Abs(g); got > eps {
					t.Errorf("ε = %v, %s: achieved relative error %v", eps, b, got)
				}
			}
		}
	})
}

// The Table2 probes for the paper's two bounder pathologies. Definition 2
// (PMA) as literally stated admits degenerate witnesses (a constant
// sample clipped to another constant leaves every width unchanged), so
// exhibitsPMA operationalizes the mechanism arguments of §2.3.3 instead,
// and PHOS (Definition 3) is probed directly.
const (
	probeM     = 10000 // large enough to separate O(1/m) from O(1/√m) terms
	probeDelta = 1e-6  // per side
	probeTol   = 1e-9  // float noise between structurally equal quantities
)

// probeSample returns probeM values spread evenly over [lo, hi], in
// increasing order, extremes included.
func probeSample(lo, hi float64) []float64 {
	s := make([]float64, probeM)
	for i := range s {
		s[i] = lo + (hi-lo)*float64(i)/float64(probeM-1)
	}
	return s
}

// probeState returns a fresh state of b fed the sample.
func probeState(b ci.Bounder, sample []float64) ci.State {
	s := b.NewState()
	for _, v := range sample {
		s.Update(v)
	}
	return s
}

// exhibitsPMA reports pessimistic mass allocation if either probe fires.
// Interior concentration: pulling the interior values of a probeSample
// halfway to its mean, its extremes pinned, leaves a width that depends
// on the data only through range quantities (Hoeffding's b−a,
// RangeTrim's max−min) unchanged. Endpoint mass: shifting the sample up
// by s, away from a, grows Anderson's pessimism gap (estimate − Lower) by
// ε·s with ε the DKW √(log(1/δ)/2m), since it re-allocates its
// unaccounted mass at a itself; the probe fires above half that.
func exhibitsPMA(b ci.Bounder) bool {
	p := ci.Params{A: 0, B: 1, N: 50 * probeM, Delta: probeDelta}
	width := func(sample []float64) float64 { return ci.BoundInterval(probeState(b, sample), p).Width() }
	base := probeSample(0.2, 0.8)
	mean := 0.0
	for _, v := range base {
		mean += v
	}
	mean /= probeM
	conc := append([]float64(nil), base...)
	for i := 1; i < probeM-1; i++ {
		conc[i] = mean + (conc[i]-mean)/2
	}
	if width(conc) >= width(base)-probeTol {
		return true
	}

	const shift = 0.3
	low, high := probeSample(0.1, 0.3), probeSample(0.1, 0.3)
	for i := range high {
		high[i] += shift
	}
	gap := func(sample []float64) float64 {
		s := probeState(b, sample)
		return s.Estimate() - s.Lower(p)
	}
	return gap(high)-gap(low) > shift*0.5*math.Sqrt(math.Log(1/probeDelta)/(2*probeM))
}

// exhibitsPHOS reports phantom outlier sensitivity: the lower bound moves
// when the upper range bound b widens (or the upper bound when a does)
// with the sample held fixed.
func exhibitsPHOS(b ci.Bounder) bool {
	s := probeState(b, probeSample(0.2, 0.4))
	params := func(a, b float64) ci.Params {
		return ci.Params{A: a, B: b, N: 50 * probeM, Delta: probeDelta}
	}
	return math.Abs(s.Lower(params(0, 1))-s.Lower(params(0, 100))) > probeTol ||
		math.Abs(s.Upper(params(0, 1))-s.Upper(params(-100, 1))) > probeTol
}
