package experiments

import (
	"context"
	"fmt"
	"io"

	"fastframe/internal/ci"
	"fastframe/internal/core"
	"fastframe/internal/exec"
	"fastframe/internal/flights"
	"fastframe/internal/query"
	"fastframe/internal/table"
)

// ---------------------------------------------------------------------------
// Table 2: pathology matrix.

// Table2Row is one measured row of the pathology matrix.
type Table2Row = core.PathologyReport

// Table2 measures PMA and PHOS for the surveyed bounders plus the two
// RangeTrim arms (extending the paper's Table 2 with the fix).
func Table2() []Table2Row {
	bs := []ci.Bounder{
		ci.HoeffdingSerfling{},
		ci.EmpiricalBernsteinSerfling{},
		ci.AndersonDKW{},
		core.RangeTrim{Inner: ci.HoeffdingSerfling{}},
		core.RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}},
	}
	out := make([]Table2Row, len(bs))
	for i, b := range bs {
		out[i] = core.Diagnose(b)
	}
	return out
}

// WriteTable2 prints the matrix.
func WriteTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "%-16s %-6s %-6s\n", "bounder", "PMA", "PHOS")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-6v %-6v\n", r.Bounder, r.PMA, r.PHOS)
	}
}

// ---------------------------------------------------------------------------
// Table 5: error-bounder ablation over F-q1..F-q9.

// Table5Row reports one query's ablation.
type Table5Row struct {
	Query        string
	ExactSeconds float64
	Arms         map[string]RunStats // keyed by BounderSpec.Name
}

// Table5 runs the nine default Flights queries under Exact and the four
// bounder arms, reporting speedups over Exact (the paper's Table 5).
func Table5(t *table.Table, cfg Config) ([]Table5Row, error) {
	cfg = cfg.withDefaults()
	var out []Table5Row
	for _, q := range flights.DefaultQueries() {
		ex, err := exec.RunExact(context.Background(), t, q)
		if err != nil {
			return nil, fmt.Errorf("%s exact: %w", q.Name, err)
		}
		row := Table5Row{Query: q.Name, ExactSeconds: ex.Duration.Seconds(), Arms: map[string]RunStats{}}
		for _, arm := range Bounders() {
			res, err := runOnce(t, q, arm.B, cfg, cfg.Seed)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", q.Name, arm.Name, err)
			}
			row.Arms[arm.Name] = RunStats{
				Seconds: res.Duration.Seconds(),
				Blocks:  res.BlocksFetched,
				Rows:    res.RowsCovered,
				Speedup: ex.Duration.Seconds() / res.Duration.Seconds(),
				Correct: Verify(q, res, ex),
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// WriteTable5 prints the ablation in the paper's layout.
func WriteTable5(w io.Writer, rows []Table5Row) {
	arms := Bounders()
	fmt.Fprintf(w, "%-6s %10s", "query", "exact(s)")
	for _, a := range arms {
		fmt.Fprintf(w, " %22s", a.Name+" ×(s)")
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %10s", r.Query, fmtSeconds(r.ExactSeconds))
		for _, a := range arms {
			s := r.Arms[a.Name]
			ok := ""
			if !s.Correct {
				ok = " WRONG"
			}
			fmt.Fprintf(w, " %15.2fx (%s)%s", s.Speedup, fmtSeconds(s.Seconds), ok)
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------------
// Table 6: sampling-strategy ablation (Bernstein+RT, GROUP BY queries).

// Table6Row reports one query's strategy ablation.
type Table6Row struct {
	Query       string
	ScanSeconds float64
	Arms        map[string]RunStats // "Scan", "Active"
}

// Table6Queries are the GROUP BY queries the paper's Table 6 keeps
// (those slow enough under Scan to be interesting).
func Table6Queries() []query.Query {
	return []query.Query{
		flights.Q3(2250),
		flights.Q5(),
		flights.Q6(),
		flights.Q7(),
		flights.Q8(),
	}
}

// Table6 runs the GROUP BY queries under the two sampling strategies
// with the Bernstein+RT bounder, reporting speedups over Scan.
func Table6(t *table.Table, cfg Config) ([]Table6Row, error) {
	cfg = cfg.withDefaults()
	bounder := core.RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}}
	strategies := []struct {
		name string
		s    exec.Strategy
	}{
		{"Scan", exec.Scan},
		{"Active", exec.Active},
	}
	var out []Table6Row
	for _, q := range Table6Queries() {
		ex, err := exec.RunExact(context.Background(), t, q)
		if err != nil {
			return nil, err
		}
		row := Table6Row{Query: q.Name, Arms: map[string]RunStats{}}
		for _, st := range strategies {
			c := cfg
			c.Strategy = st.s
			res, err := runOnce(t, q, bounder, c, cfg.Seed)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", q.Name, st.name, err)
			}
			stats := RunStats{
				Seconds: res.Duration.Seconds(),
				Blocks:  res.BlocksFetched,
				Rows:    res.RowsCovered,
				Correct: Verify(q, res, ex),
			}
			row.Arms[st.name] = stats
			if st.name == "Scan" {
				row.ScanSeconds = stats.Seconds
			}
		}
		for name, s := range row.Arms {
			s.Speedup = row.ScanSeconds / s.Seconds
			row.Arms[name] = s
		}
		out = append(out, row)
	}
	return out, nil
}

// WriteTable6 prints the strategy ablation.
func WriteTable6(w io.Writer, rows []Table6Row) {
	fmt.Fprintf(w, "%-6s %10s %22s\n", "query", "scan(s)", "Active ×(s)")
	for _, r := range rows {
		active := r.Arms["Active"]
		fmt.Fprintf(w, "%-6s %10s %15.2fx (%s)\n",
			r.Query, fmtSeconds(r.ScanSeconds), active.Speedup, fmtSeconds(active.Seconds))
	}
}
