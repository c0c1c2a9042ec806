package experiments

import (
	"context"
	"strings"
	"testing"

	"fastframe/internal/exec"
	"fastframe/internal/flights"
	"fastframe/internal/query"
)

// smallCfg keeps experiment tests fast: a 120k-row table with frequent
// bound recomputation.
func smallCfg() Config {
	return Config{Rows: 120_000, Seed: 3, Delta: 1e-9, RoundRows: 4000, Strategy: exec.Active}
}

func TestTable2MatchesPaper(t *testing.T) {
	rows := Table2()
	want := map[string][2]bool{ // name → {PMA, PHOS}
		"hoeffding":    {true, true},
		"bernstein":    {false, true},
		"anderson":     {true, false},
		"hoeffding+rt": {true, false},
		"bernstein+rt": {false, false},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		w, ok := want[r.Bounder]
		if !ok {
			t.Errorf("unexpected bounder %q", r.Bounder)
			continue
		}
		if r.PMA != w[0] || r.PHOS != w[1] {
			t.Errorf("%s: (PMA,PHOS) = (%v,%v), want (%v,%v)", r.Bounder, r.PMA, r.PHOS, w[0], w[1])
		}
	}
	var sb strings.Builder
	WriteTable2(&sb, rows)
	if !strings.Contains(sb.String(), "bernstein+rt") {
		t.Error("WriteTable2 output missing rows")
	}
}

func TestTable5SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test is slow")
	}
	cfg := smallCfg()
	tab, err := BuildTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Table5(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d queries", len(rows))
	}
	for _, r := range rows {
		if r.ExactSeconds <= 0 {
			t.Errorf("%s: exact time not recorded", r.Query)
		}
		for name, s := range r.Arms {
			if !s.Correct {
				t.Errorf("%s/%s: incorrect answer", r.Query, name)
			}
			if s.Seconds <= 0 {
				t.Errorf("%s/%s: time not recorded", r.Query, name)
			}
		}
	}
	var sb strings.Builder
	WriteTable5(&sb, rows)
	if !strings.Contains(sb.String(), "F-q1") || strings.Contains(sb.String(), "WRONG") {
		t.Errorf("WriteTable5 output problem:\n%s", sb.String())
	}
}

func TestTable6SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test is slow")
	}
	cfg := smallCfg()
	tab, err := BuildTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Table6(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d queries", len(rows))
	}
	for _, r := range rows {
		for name, s := range r.Arms {
			if !s.Correct {
				t.Errorf("%s/%s: incorrect answer", r.Query, name)
			}
		}
		// Active scanning must not fetch more blocks than Scan.
		if r.Arms["Active"].Blocks > r.Arms["Scan"].Blocks {
			t.Errorf("%s: Active fetched more blocks than Scan", r.Query)
		}
	}
	var sb strings.Builder
	WriteTable6(&sb, rows)
	if !strings.Contains(sb.String(), "F-q5") {
		t.Error("WriteTable6 output missing rows")
	}
}

func TestFig6SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test is slow")
	}
	cfg := smallCfg()
	tab, err := BuildTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := Fig6(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(Fig6Airports()) {
		t.Fatalf("got %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Selectivity < pts[i-1].Selectivity {
			t.Error("points not sorted by selectivity")
		}
	}
	for _, p := range pts {
		for name, s := range p.Arms {
			if !s.Correct {
				t.Errorf("%s/%s: incorrect", p.Airport, name)
			}
		}
	}
	var sb strings.Builder
	WriteFig6(&sb, pts)
	if !strings.Contains(sb.String(), "selectivity") {
		t.Error("WriteFig6 missing header")
	}
}

func TestFig7aAchievedWithinRequested(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test is slow")
	}
	cfg := smallCfg()
	tab, err := BuildTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := Fig7a(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		for name, got := range p.ActualRelErr {
			if got > p.RequestedEps {
				t.Errorf("eps=%v %s: achieved %v exceeds request", p.RequestedEps, name, got)
			}
		}
	}
	var sb strings.Builder
	WriteFig7a(&sb, pts)
	if !strings.Contains(sb.String(), "eps") {
		t.Error("WriteFig7a missing header")
	}
}

func TestFig7bSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test is slow")
	}
	cfg := smallCfg()
	cfg.Rows = 60_000 // the threshold sweep runs 25 × 4 queries
	tab, err := BuildTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Fig7b(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != len(Fig7bThresholds()) {
		t.Fatalf("got %d points", len(r.Points))
	}
	if len(r.Aggregates) != len(flights.Airlines) {
		t.Fatalf("got %d aggregates", len(r.Aggregates))
	}
	// At this tiny scale every threshold near the aggregates forces a
	// full scan (the catalog range dwarfs what 60k rows can resolve at
	// δ=1e−9), so the near-aggregate spike of the paper's Figure 7(b)
	// only emerges at benchmark scale; here we check the sweep is
	// well-formed and costs are positive and bounded by the table size.
	maxBlocks := (cfg.Rows + 24) / 25
	for _, p := range r.Points {
		for name, blocks := range p.Blocks {
			if blocks <= 0 || blocks > maxBlocks {
				t.Errorf("thresh %v %s: blocks = %d out of range", p.Threshold, name, blocks)
			}
		}
	}
	var sb strings.Builder
	WriteFig7b(&sb, r)
	if !strings.Contains(sb.String(), "thresh") {
		t.Error("WriteFig7b missing header")
	}
}

func TestFig8SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test is slow")
	}
	cfg := smallCfg()
	cfg.Rows = 60_000
	tab, err := BuildTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := Fig8(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(Fig8Times()) {
		t.Fatalf("got %d points", len(pts))
	}
	var sb strings.Builder
	WriteFig8(&sb, pts)
	if !strings.Contains(sb.String(), "min_dep") {
		t.Error("WriteFig8 missing header")
	}
}

func TestVerify(t *testing.T) {
	cfg := Config{Rows: 30_000, Seed: 9, Delta: 1e-9, RoundRows: 2000}
	tab, err := BuildTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := flights.Q2(8)
	ex, err := exec.RunExact(context.Background(), tab, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOnce(tab, q, Bounders()[3].B, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(q, res, ex) {
		t.Error("correct threshold run flagged wrong")
	}

	// Tamper with the result: force a wrong side decision.
	bad := *res
	bad.Groups = append([]exec.GroupResult(nil), res.Groups...)
	for i := range bad.Groups {
		truth := ex.Group(bad.Groups[i].Key)
		if truth.Aggs[0].Interval.Estimate < 8 {
			bad.Groups[i].Aggs[0].Interval.Lo = 8.5 // claims "above" while truth is below
			bad.Groups[i].Aggs[0].Interval.Hi = 9.5
			break
		}
	}
	if Verify(q, &bad, ex) {
		t.Error("tampered threshold run not flagged")
	}

	// Top-K verification.
	qk := flights.Q9()
	exK, _ := exec.RunExact(context.Background(), tab, qk)
	resK, err := runOnce(tab, qk, Bounders()[3].B, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(qk, resK, exK) {
		t.Error("correct top-k run flagged wrong")
	}

	// Unknown stop kinds verify trivially.
	qe := query.Query{Aggs: []query.Aggregate{{Kind: query.Avg, Column: flights.ColDepDelay}}, Stop: query.Exhaust()}
	if !Verify(qe, res, ex) {
		t.Error("exhaust queries should verify trivially")
	}
}
