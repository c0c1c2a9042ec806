package exec

import (
	"fmt"
	"testing"

	"fastframe/internal/ci"
	"fastframe/internal/core"
	"fastframe/internal/query"
)

// TestSharedTracksMatchCopiedColumns pins the sharing of bounder tracks
// between aggregates of one input to an independent reference: the same
// list over exact copies of the column, where no two aggregates share an
// input and so no two share a track. AVG, VAR and STDDEV of "value" read
// one mean track and one square track; AVG of "value", VAR of "value2"
// and STDDEV of "value3" feed five tracks the same value sequences. Every
// look's snapshot and the result must agree bit for bit, under every
// mean bounder, grouped and ungrouped, stopped by a rule, capped by
// MaxRows and exhausted (exact finalization).
func TestSharedTracksMatchCopiedColumns(t *testing.T) {
	tab := buildTestTableCopies(t, 20_000, 5, 25, "value2", "value3")
	col := func(k query.AggKind, c string) query.Aggregate { return query.Aggregate{Kind: k, Column: c} }
	pairs := []struct {
		name           string
		shared, copied []query.Aggregate
	}{
		{
			name:   "avg-var-stddev",
			shared: []query.Aggregate{col(query.Avg, "value"), col(query.Var, "value"), col(query.Stddev, "value")},
			copied: []query.Aggregate{col(query.Avg, "value"), col(query.Var, "value2"), col(query.Stddev, "value3")},
		},
		{
			name:   "sum-avg",
			shared: []query.Aggregate{col(query.Sum, "value"), col(query.Avg, "value")},
			copied: []query.Aggregate{col(query.Sum, "value"), col(query.Avg, "value2")},
		},
	}
	shapes := []struct {
		name    string
		pred    query.Predicate
		groupBy []string
	}{
		{name: "ungrouped"}, // the known-N path
		{name: "ungrouped-range", pred: query.Predicate{}.AndRange("time", 300, 1800)},
		{name: "grouped", groupBy: []string{"airline"}},
	}
	modes := []struct {
		name  string
		stop  query.Stop
		rows  int
		flags func(*Result) bool
	}{
		{"stopped", query.FixedSamples(1500), 0, func(r *Result) bool { return r.Stopped && !r.Exhausted }},
		{"capped", query.Exhaust(), 5010, func(r *Result) bool { return !r.Stopped && !r.Exhausted }},
		{"exhausted", query.Exhaust(), 0, func(r *Result) bool { return r.Exhausted }},
	}
	bounders := []ci.Bounder{
		ci.HoeffdingSerfling{},
		ci.EmpiricalBernsteinSerfling{},
		core.RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}},
		ci.AndersonDKW{},
	}
	run := func(name string, q query.Query, o Options) (*Result, string) {
		t.Helper()
		snaps := captureRounds(&o)
		res, err := Run(tab, q, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res, goldenOutcome(res, *snaps)
	}
	for _, pr := range pairs {
		for _, sh := range shapes {
			for _, m := range modes {
				for _, b := range bounders {
					name := fmt.Sprintf("%s/%s/%s/%s", pr.name, sh.name, m.name, b.Name())
					o := Options{Bounder: b, Delta: 1e-9, RoundRows: 1000, StartBlock: 13, MaxRows: m.rows}
					q := query.Query{Pred: sh.pred, GroupBy: sh.groupBy, Stop: m.stop}
					q.Aggs = pr.shared
					res, shared := run(name+"/shared", q, o)
					q.Aggs = pr.copied
					_, copied := run(name+"/copied", q, o)
					if !m.flags(res) {
						t.Errorf("%s: stopped=%v exhausted=%v: the run did not end the way its mode names",
							name, res.Stopped, res.Exhausted)
					}
					if shared != copied {
						t.Errorf("%s: shared tracks diverged from copied columns\n shared: %s\n copied: %s", name, shared, copied)
					}
				}
			}
		}
	}
}
