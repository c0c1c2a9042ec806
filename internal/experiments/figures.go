package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"fastframe/internal/exec"
	"fastframe/internal/flights"
	"fastframe/internal/table"
)

// ---------------------------------------------------------------------------
// Figure 6: wall time and blocks fetched vs filter selectivity
// (F-q1[ε=.5], varying $airport).

// Fig6Point is one (airport, bounder) measurement.
type Fig6Point struct {
	Airport     string
	Selectivity float64
	Arms        map[string]RunStats
}

// Fig6Airports picks airports spanning the selectivity range, largest
// to smallest, for the Figure 6 sweep.
func Fig6Airports() []string {
	aps := flights.Airports()
	picks := []int{0, 2, 5, 9, 14, 22, 32, 45, 59}
	out := make([]string, len(picks))
	for i, p := range picks {
		out[i] = aps[p].Code
	}
	return out
}

// Fig6 sweeps F-q1[ε=0.5] over airports of decreasing selectivity for
// every bounder arm.
func Fig6(t *table.Table, cfg Config) ([]Fig6Point, error) {
	cfg = cfg.withDefaults()
	var out []Fig6Point
	for _, airport := range Fig6Airports() {
		q := flights.Q1(airport, 0.5)
		sel, err := selectivityOf(t, q)
		if err != nil {
			return nil, err
		}
		p := Fig6Point{Airport: airport, Selectivity: sel, Arms: map[string]RunStats{}}
		ex, err := exec.RunExact(context.Background(), t, q)
		if err != nil {
			return nil, err
		}
		for _, arm := range Bounders() {
			res, err := runOnce(t, q, arm.B, cfg, cfg.Seed)
			if err != nil {
				return nil, err
			}
			p.Arms[arm.Name] = RunStats{
				Seconds: res.Duration.Seconds(),
				Blocks:  res.BlocksFetched,
				Rows:    res.RowsCovered,
				Correct: Verify(q, res, ex),
			}
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Selectivity < out[j].Selectivity })
	return out, nil
}

// WriteFig6 prints the two series (wall time, blocks) per bounder.
func WriteFig6(w io.Writer, pts []Fig6Point) {
	fmt.Fprintf(w, "%-8s %12s", "airport", "selectivity")
	for _, a := range Bounders() {
		fmt.Fprintf(w, " %14s %10s", a.Name+"(s)", "blocks")
	}
	fmt.Fprintln(w)
	for _, p := range pts {
		fmt.Fprintf(w, "%-8s %12.5f", p.Airport, p.Selectivity)
		for _, a := range Bounders() {
			s := p.Arms[a.Name]
			fmt.Fprintf(w, " %14s %10d", fmtSeconds(s.Seconds), s.Blocks)
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------------
// Figure 7(a): requested vs achieved relative error (F-q1).

// Fig7aPoint is one (ε, bounder) measurement.
type Fig7aPoint struct {
	RequestedEps float64
	// ActualRelErr maps bounder name to the achieved |ĝ−g*|/|g*|.
	ActualRelErr map[string]float64
}

// Fig7aEpsilons is the requested-ε sweep of Figure 7(a).
func Fig7aEpsilons() []float64 {
	return []float64{0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0}
}

// Fig7a sweeps the requested maximum relative error for F-q1[ORD] and
// reports the achieved relative error per bounder; the paper's claim is
// that the achieved error always sits within (far below) the request.
func Fig7a(t *table.Table, cfg Config) ([]Fig7aPoint, error) {
	cfg = cfg.withDefaults()
	exactQ := flights.Q1("ORD", 1)
	ex, err := exec.RunExact(context.Background(), t, exactQ)
	if err != nil {
		return nil, err
	}
	truth := ex.Groups[0].Aggs[0].Interval.Estimate
	var out []Fig7aPoint
	for _, eps := range Fig7aEpsilons() {
		q := flights.Q1("ORD", eps)
		p := Fig7aPoint{RequestedEps: eps, ActualRelErr: map[string]float64{}}
		for _, arm := range Bounders() {
			res, err := runOnce(t, q, arm.B, cfg, cfg.Seed)
			if err != nil {
				return nil, err
			}
			got := res.Groups[0].Aggs[0].Interval.Estimate
			p.ActualRelErr[arm.Name] = math.Abs(got-truth) / math.Abs(truth)
		}
		out = append(out, p)
	}
	return out, nil
}

// WriteFig7a prints the sweep.
func WriteFig7a(w io.Writer, pts []Fig7aPoint) {
	fmt.Fprintf(w, "%-10s", "eps")
	for _, a := range Bounders() {
		fmt.Fprintf(w, " %14s", a.Name)
	}
	fmt.Fprintln(w)
	for _, p := range pts {
		fmt.Fprintf(w, "%-10.3f", p.RequestedEps)
		for _, a := range Bounders() {
			fmt.Fprintf(w, " %14.6f", p.ActualRelErr[a.Name])
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------------
// Figure 7(b): blocks fetched vs HAVING threshold (F-q2), with the true
// airline aggregates for reference.

// Fig7bPoint is one threshold's measurement.
type Fig7bPoint struct {
	Threshold float64
	Blocks    map[string]int // bounder name → blocks fetched
}

// Fig7bResult bundles the sweep with the airline ground truth.
type Fig7bResult struct {
	Points     []Fig7bPoint
	Aggregates map[string]float64 // airline → exact AVG(DepDelay)
}

// Fig7bThresholds sweeps 0..16, the synthetic analogue of the paper's
// 0..12 (the synthetic airline aggregates span ≈4.3..16.3; see the
// generator's scale notes).
func Fig7bThresholds() []float64 {
	var out []float64
	for v := 0.0; v <= 16.01; v += 0.5 {
		out = append(out, v)
	}
	return out
}

// Fig7b sweeps the F-q2 HAVING threshold for every bounder.
func Fig7b(t *table.Table, cfg Config) (*Fig7bResult, error) {
	cfg = cfg.withDefaults()
	exAll, err := exec.RunExact(context.Background(), t, flights.Q2(0))
	if err != nil {
		return nil, err
	}
	res := &Fig7bResult{Aggregates: map[string]float64{}}
	for _, g := range exAll.Groups {
		res.Aggregates[g.Key] = g.Aggs[0].Interval.Estimate
	}
	for _, thresh := range Fig7bThresholds() {
		q := flights.Q2(thresh)
		p := Fig7bPoint{Threshold: thresh, Blocks: map[string]int{}}
		for _, arm := range Bounders() {
			r, err := runOnce(t, q, arm.B, cfg, cfg.Seed)
			if err != nil {
				return nil, err
			}
			p.Blocks[arm.Name] = r.BlocksFetched
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// WriteFig7b prints the sweep and the reference aggregates.
func WriteFig7b(w io.Writer, r *Fig7bResult) {
	fmt.Fprintln(w, "airline aggregates (exact):")
	keys := make([]string, 0, len(r.Aggregates))
	for k := range r.Aggregates {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return r.Aggregates[keys[i]] < r.Aggregates[keys[j]] })
	for _, k := range keys {
		fmt.Fprintf(w, "  %-4s %8.3f\n", k, r.Aggregates[k])
	}
	fmt.Fprintf(w, "%-10s", "thresh")
	for _, a := range Bounders() {
		fmt.Fprintf(w, " %14s", a.Name)
	}
	fmt.Fprintln(w)
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-10.2f", p.Threshold)
		for _, a := range Bounders() {
			fmt.Fprintf(w, " %14d", p.Blocks[a.Name])
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------------
// Figure 8: blocks fetched vs minimum departure time (F-q3).

// Fig8Point is one $min_dep_time measurement.
type Fig8Point struct {
	MinDepTime float64
	Blocks     map[string]int
}

// Fig8Times sweeps departure times 10:00..22:30 in HHMM as in the paper.
func Fig8Times() []float64 {
	return []float64{1000, 1130, 1300, 1430, 1600, 1730, 1900, 2030, 2130, 2250}
}

// Fig8 sweeps F-q3's minimum departure time for every bounder.
func Fig8(t *table.Table, cfg Config) ([]Fig8Point, error) {
	cfg = cfg.withDefaults()
	var out []Fig8Point
	for _, mdt := range Fig8Times() {
		q := flights.Q3(mdt)
		p := Fig8Point{MinDepTime: mdt, Blocks: map[string]int{}}
		for _, arm := range Bounders() {
			r, err := runOnce(t, q, arm.B, cfg, cfg.Seed)
			if err != nil {
				return nil, err
			}
			p.Blocks[arm.Name] = r.BlocksFetched
		}
		out = append(out, p)
	}
	return out, nil
}

// WriteFig8 prints the sweep.
func WriteFig8(w io.Writer, pts []Fig8Point) {
	fmt.Fprintf(w, "%-10s", "min_dep")
	for _, a := range Bounders() {
		fmt.Fprintf(w, " %14s", a.Name)
	}
	fmt.Fprintln(w)
	for _, p := range pts {
		fmt.Fprintf(w, "%-10.0f", p.MinDepTime)
		for _, a := range Bounders() {
			fmt.Fprintf(w, " %14d", p.Blocks[a.Name])
		}
		fmt.Fprintln(w)
	}
}
