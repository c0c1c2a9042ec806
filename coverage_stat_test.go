package fastframe

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"fastframe/internal/stats"
)

// Monte-Carlo coverage harness: on data drawn from known distributions,
// the empirical probability that a query's (1−δ) interval misses the
// true aggregate must stay below δ (plus a sampling tolerance). The
// scan is cut off mid-stream with WithMaxRows so the intervals under test are
// genuine partial-coverage CIs, not exact finalizations.

// coverageTolerance absorbs the Monte-Carlo noise of estimating a miss
// rate from a finite number of trials.
const coverageTolerance = 0.02

type coverageDist struct {
	name string
	gen  func(rng *rand.Rand) float64
	lo   float64 // a-priori catalog bounds fed to the builder
	hi   float64
}

func coverageDists() []coverageDist {
	return []coverageDist{
		{
			name: "uniform",
			gen:  func(rng *rand.Rand) float64 { return rng.Float64() * 100 },
			lo:   0, hi: 100,
		},
		{
			name: "heavy-tail",
			// Exponential with a hard cap: skewed, most mass far from
			// the upper catalog bound — the regime RangeTrim targets.
			gen: func(rng *rand.Rand) float64 { return min(rng.ExpFloat64()*8, 400) },
			lo:  0, hi: 400,
		},
		{
			name: "bimodal",
			gen: func(rng *rand.Rand) float64 {
				if rng.Float64() < 0.3 {
					return -20 + rng.NormFloat64()
				}
				return 35 + rng.NormFloat64()
			},
			lo: -60, hi: 80,
		},
	}
}

// buildCoverageTable synthesizes one trial's table and returns it with
// the true mean and the true count of values above 20.
func buildCoverageTable(t *testing.T, d coverageDist, seed uint64) (tab *Table, mean float64, above int) {
	t.Helper()
	const rows = 2500
	rng := rand.New(rand.NewPCG(seed, 0xc0ffee))
	tb, err := NewTableBuilder(Column{Name: "v", Kind: Float})
	if err != nil {
		t.Fatal(err)
	}
	var w stats.Welford
	for i := 0; i < rows; i++ {
		v := d.gen(rng)
		w.Add(v)
		if v > 20 {
			above++
		}
		if err := tb.AppendRow(map[string]float64{"v": v}, nil); err != nil {
			t.Fatal(err)
		}
	}
	tb.WidenBounds("v", d.lo, d.hi)
	tab, err = tb.Build(seed)
	if err != nil {
		t.Fatal(err)
	}
	return tab, w.Mean(), above
}

// TestStatisticalCoverage runs ≥ 500 seeded trials (short mode: 60) per
// distribution, checking that empirical CI coverage of AVG and COUNT
// stays at or above 1−δ within tolerance.
func TestStatisticalCoverage(t *testing.T) {
	trials := 500
	if testing.Short() {
		trials = 60
	}
	const delta = 0.05
	ctx := context.Background()
	for _, d := range coverageDists() {
		t.Run(d.name, func(t *testing.T) {
			avgMiss, cntMiss := 0, 0
			for trial := 0; trial < trials; trial++ {
				tab, mean, above := buildCoverageTable(t, d, uint64(trial)+1)
				opts := []Option{
					WithDelta(delta),
					WithRoundRows(150),
					WithMaxRows(600), // stop mid-scan: partial-coverage CIs
					WithSeed(uint64(trial) * 31),
				}
				res, err := tab.Query(ctx, Avg("v"), opts...)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Groups) != 1 {
					t.Fatalf("trial %d: %d groups", trial, len(res.Groups))
				}
				if !res.Groups[0].Answers[0].Contains(mean) {
					avgMiss++
				}
				cres, err := tab.Query(ctx, CountRows().WhereGreater("v", 20), opts...)
				if err != nil {
					t.Fatal(err)
				}
				if len(cres.Groups) == 1 && !cres.Groups[0].Answers[0].Contains(float64(above)) {
					cntMiss++
				}
			}
			maxMiss := (delta + coverageTolerance) * float64(trials)
			if float64(avgMiss) > maxMiss {
				t.Errorf("AVG coverage %.3f below 1-δ (%d/%d misses)",
					1-float64(avgMiss)/float64(trials), avgMiss, trials)
			}
			if float64(cntMiss) > maxMiss {
				t.Errorf("COUNT coverage %.3f below 1-δ (%d/%d misses)",
					1-float64(cntMiss)/float64(trials), cntMiss, trials)
			}
		})
	}
}

// buildWideCoverageTable synthesizes one trial's table with a skewed
// categorical column alongside the continuous value, returning the true
// median (the engine's order-statistic definition), the true population
// variance, and the true distinct-category count.
func buildWideCoverageTable(t *testing.T, d coverageDist, seed uint64) (tab *Table, median, variance float64, distinct int) {
	t.Helper()
	const rows = 2500
	rng := rand.New(rand.NewPCG(seed, 0xdecaf))
	tb, err := NewTableBuilder(Column{Name: "v", Kind: Float}, Column{Name: "c", Kind: Categorical})
	if err != nil {
		t.Fatal(err)
	}
	var w stats.Welford
	var ecdf stats.ECDF
	seen := map[string]bool{}
	for i := 0; i < rows; i++ {
		v := d.gen(rng)
		w.Add(v)
		ecdf.Add(v)
		// Zipf-ish categories: low codes dominate, the tail is rare
		// enough that a cut-off scan usually has unseen categories.
		c := fmt.Sprintf("c%d", int(rng.ExpFloat64()*3)%12)
		seen[c] = true
		if err := tb.AppendRow(map[string]float64{"v": v}, map[string]string{"c": c}); err != nil {
			t.Fatal(err)
		}
	}
	tb.WidenBounds("v", d.lo, d.hi)
	tab, err = tb.Build(seed)
	if err != nil {
		t.Fatal(err)
	}
	return tab, ecdf.Quantile(0.5), w.Variance(), len(seen)
}

// TestWideStatisticalCoverage extends the harness to the wider surface:
// MEDIAN, VAR, and COUNT(DISTINCT) asked together on one scan, cut off
// mid-stream. The per-aggregate Bonferroni split (δ_view/3) makes the
// JOINT statement — all three intervals simultaneously cover their
// truths — hold with probability ≥ 1−δ, so the joint miss rate is what
// the harness checks (≥ 500 seeded trials per distribution; short
// mode: 60).
func TestWideStatisticalCoverage(t *testing.T) {
	trials := 500
	if testing.Short() {
		trials = 60
	}
	const delta = 0.05
	ctx := context.Background()
	q := Select(Median("v"), Var("v"), CountDistinct("c"))
	for _, d := range coverageDists() {
		t.Run(d.name, func(t *testing.T) {
			jointMiss := 0
			perAgg := [3]int{}
			for trial := 0; trial < trials; trial++ {
				tab, median, variance, distinct := buildWideCoverageTable(t, d, uint64(trial)+1)
				res, err := tab.Query(ctx, q,
					WithDelta(delta),
					WithRoundRows(150),
					WithMaxRows(600), // stop mid-scan: partial-coverage CIs
					WithSeed(uint64(trial)*37))
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Groups) != 1 || len(res.Groups[0].Answers) != 3 {
					t.Fatalf("trial %d: groups %d answers %d", trial, len(res.Groups), len(res.Groups[0].Answers))
				}
				g := res.Groups[0]
				truths := [3]float64{median, variance, float64(distinct)}
				miss := false
				for k, truth := range truths {
					if !g.Answers[k].Contains(truth) {
						perAgg[k]++
						miss = true
					}
				}
				if miss {
					jointMiss++
				}
			}
			if maxMiss := (delta + coverageTolerance) * float64(trials); float64(jointMiss) > maxMiss {
				t.Errorf("joint coverage %.3f below 1-δ (%d/%d misses; per-agg MEDIAN/VAR/DISTINCT = %v)",
					1-float64(jointMiss)/float64(trials), jointMiss, trials, perAgg)
			}
		})
	}
}

// TestAdversarialStoppingCoverage plays Theorem 4's adversary through the
// engine: it watches every look — the ramp's four at 50, 100, 200 and 400
// rows, then every 800 — and stops the scan at the first one whose
// interval excludes the truth. Optional stopping is exactly the freedom
// the per-look budgets pay for, so it may win at most δ of the trials
// (plus the Monte-Carlo tolerance), against AVG and against COUNT (the
// selectivity interval, the one that has no slack to hide a budget error
// in), on the skewed and the bimodal data alike.
func TestAdversarialStoppingCoverage(t *testing.T) {
	trials := 500
	if testing.Short() {
		trials = 60
	}
	const delta = 0.05
	for _, d := range coverageDists()[1:] { // heavy-tail, bimodal
		t.Run(d.name, func(t *testing.T) {
			wins := [2]int{}
			for trial := 0; trial < trials; trial++ {
				tab, mean, above := buildCoverageTable(t, d, uint64(trial)+1)
				for k, target := range []struct {
					q     QueryBuilder
					truth float64
				}{{Avg("v"), mean}, {CountRows().WhereGreater("v", 20), float64(above)}} {
					var at []int
					res, err := tab.Query(context.Background(), target.q,
						WithDelta(delta), WithRoundRows(800), WithSeed(uint64(trial)*41),
						WithProgress(func(p Progress) bool {
							at = append(at, p.RowsCovered)
							return len(p.Groups) == 0 || p.Groups[0].Answers[0].Contains(target.truth)
						}))
					if err != nil {
						t.Fatal(err)
					}
					if res.Aborted {
						wins[k]++
					} else if want := []int{50, 100, 200, 400, 800, 1600, 2400}; !reflect.DeepEqual(at, want) {
						t.Fatalf("trial %d: looks at %v rows, want %v", trial, at, want)
					}
				}
			}
			for k, name := range []string{"AVG", "COUNT"} {
				if float64(wins[k]) > (delta+coverageTolerance)*float64(trials) {
					t.Errorf("%s: the adversary stopped %d/%d scans on an interval excluding the truth, more than δ = %v allows", name, wins[k], trials, delta)
				}
			}
			t.Logf("adversary won AVG %d/%d, COUNT %d/%d", wins[0], trials, wins[1], trials)
		})
	}
}
