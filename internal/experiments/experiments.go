// Package experiments reproduces every table and figure of the paper's
// empirical study (§5): the pathology matrix (Table 2), the error-
// bounder ablation (Table 5), the sampling-strategy ablation (Table 6),
// the selectivity sweep (Figure 6), the requested-vs-achieved relative
// error sweep (Figure 7a), the HAVING-threshold sweep (Figure 7b), and
// the minimum-departure-time sweep (Figure 8). Both cmd/ffbench and the
// repository's testing.B benchmarks drive these entry points, so the
// printed rows and the benchmarked code paths are identical.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"fastframe/internal/ci"
	"fastframe/internal/core"
	"fastframe/internal/exec"
	"fastframe/internal/flights"
	"fastframe/internal/query"
	"fastframe/internal/table"
)

// Config scopes one experiment run.
type Config struct {
	// Rows is the synthesized Flights table size.
	Rows int
	// Seed drives dataset generation and scan start positions.
	Seed uint64
	// Delta is the per-query error probability (default 1e−15, the
	// paper's setting).
	Delta float64
	// RoundRows is the look schedule's round size R (default 40000).
	RoundRows int
	// Strategy used for bounder ablations (ffbench sets Active, the full
	// system).
	Strategy exec.Strategy
	// Parallelism is exec.Options.Parallelism: the goroutines a look's
	// bound recomputation may use. Results are identical for every value.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Rows <= 0 {
		c.Rows = 2_000_000
	}
	if c.Delta <= 0 {
		c.Delta = exec.DefaultDelta
	}
	if c.RoundRows <= 0 {
		c.RoundRows = core.DefaultBatchSize
	}
	return c
}

// BuildTable synthesizes the Flights table for the config.
func BuildTable(cfg Config) (*table.Table, error) {
	cfg = cfg.withDefaults()
	return flights.Generate(flights.Config{Rows: cfg.Rows, Seed: cfg.Seed})
}

// BounderSpec names one ablation arm.
type BounderSpec struct {
	Name string
	B    ci.Bounder
}

// Bounders returns the four ablation arms of Table 5 in the paper's
// column order.
func Bounders() []BounderSpec {
	return []BounderSpec{
		{"Hoeffding", ci.HoeffdingSerfling{}},
		{"Hoeffding+RT", core.RangeTrim{Inner: ci.HoeffdingSerfling{}}},
		{"Bernstein", ci.EmpiricalBernsteinSerfling{}},
		{"Bernstein+RT", core.RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}}},
	}
}

// RunStats records one approximate execution.
type RunStats struct {
	Seconds float64
	Blocks  int
	Rows    int
	Speedup float64 // vs the experiment's baseline
	Correct bool    // answer matched the exact ground truth
}

func runOnce(t *table.Table, q query.Query, b ci.Bounder, cfg Config, startSeed uint64) (*exec.Result, error) {
	return exec.Run(t, q, exec.Options{
		Bounder:     b,
		Strategy:    cfg.Strategy,
		Delta:       cfg.Delta,
		RoundRows:   cfg.RoundRows,
		StartBlock:  int(startSeed % uint64(maxInt(1, t.Layout().NumBlocks()))),
		Parallelism: cfg.Parallelism,
	})
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Verify checks an approximate result against the exact ground truth
// under the query's own stopping semantics: width conditions must meet
// the requested accuracy, threshold conditions must classify every
// group correctly, top-/bottom-K must select the exact K set, and
// ordered must reproduce the exact ordering. This is §5.3's
// "correctness of query results" metric.
func Verify(q query.Query, res, ex *exec.Result) bool {
	w := q.Stop.AggIndex
	switch q.Stop.Kind {
	case query.StopRelWidth:
		for _, g := range res.Groups {
			truth := ex.Group(g.Key)
			if truth == nil {
				return false
			}
			tv := truth.Aggs[w].Interval.Estimate
			if tv == 0 {
				continue
			}
			iv := g.Aggs[w].Interval
			if math.Abs(iv.Estimate-tv)/math.Abs(tv) > q.Stop.Epsilon {
				return false
			}
		}
		return true
	case query.StopAbsWidth:
		for _, g := range res.Groups {
			truth := ex.Group(g.Key)
			if truth == nil {
				return false
			}
			iv := g.Aggs[w].Interval
			if math.Abs(iv.Estimate-truth.Aggs[w].Interval.Estimate) > q.Stop.Epsilon {
				return false
			}
		}
		return true
	case query.StopThreshold:
		for _, g := range res.Groups {
			truth := ex.Group(g.Key)
			if truth == nil {
				return false
			}
			tv := truth.Aggs[w].Interval.Estimate
			iv := g.Aggs[w].Interval
			if iv.Lo > q.Stop.Threshold && tv < q.Stop.Threshold {
				return false
			}
			if iv.Hi < q.Stop.Threshold && tv > q.Stop.Threshold {
				return false
			}
		}
		return true
	case query.StopTopK:
		return sameKeySet(topKeys(res, q, q.Stop.K), topKeys(ex, q, q.Stop.K))
	case query.StopOrdered:
		got := topKeys(res, q, len(res.Groups))
		want := topKeys(ex, q, len(ex.Groups))
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	default:
		return true
	}
}

type keyedValue struct {
	key string
	v   float64
}

func rankKeys(rows []keyedValue, desc bool, k int) []string {
	sort.SliceStable(rows, func(i, j int) bool {
		if desc {
			return rows[i].v > rows[j].v
		}
		return rows[i].v < rows[j].v
	})
	if k > len(rows) {
		k = len(rows)
	}
	out := make([]string, k)
	for i := range out {
		out[i] = rows[i].key
	}
	return out
}

func topKeys(res *exec.Result, q query.Query, k int) []string {
	rows := make([]keyedValue, 0, len(res.Groups))
	for _, g := range res.Groups {
		rows = append(rows, keyedValue{g.Key, g.Aggs[q.Stop.AggIndex].Interval.Estimate})
	}
	return rankKeys(rows, q.Stop.Largest || q.Stop.Kind == query.StopOrdered, k)
}

func sameKeySet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := map[string]bool{}
	for _, k := range a {
		set[k] = true
	}
	for _, k := range b {
		if !set[k] {
			return false
		}
	}
	return true
}

// selectivityOf returns the exact fraction of table rows in the query's
// (ungrouped) view.
func selectivityOf(t *table.Table, q query.Query) (float64, error) {
	cq := query.Query{Aggs: []query.Aggregate{{Kind: query.Count}}, Pred: q.Pred, Stop: query.Exhaust()}
	ex, err := exec.RunExact(context.Background(), t, cq)
	if err != nil {
		return 0, err
	}
	if len(ex.Groups) == 0 {
		return 0, nil
	}
	return float64(ex.Groups[0].Samples) / float64(t.NumRows()), nil
}

func fmtSeconds(s float64) string { return fmt.Sprintf("%.3f", s) }
