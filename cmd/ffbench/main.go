// Command ffbench regenerates the tables and figures of the paper's
// empirical study (§5) against the simulated Flights workload:
//
//	ffbench -exp table2                 # pathology matrix (Table 2)
//	ffbench -exp table5 -rows 2000000   # bounder ablation (Table 5)
//	ffbench -exp table6                 # sampling strategies (Table 6)
//	ffbench -exp fig6                   # selectivity sweep (Figure 6)
//	ffbench -exp fig7a                  # requested vs achieved rel. err
//	ffbench -exp fig7b                  # HAVING threshold sweep
//	ffbench -exp fig8                   # min departure time sweep
//	ffbench -exp coverage               # asymptotic-vs-SSI miss rates (§1)
//	ffbench -exp all                    # everything
//
// Speedup ratios and blocks-fetched counts reproduce the paper's
// qualitative shapes; absolute times reflect this machine, not the
// paper's testbed (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"fastframe/internal/exec"
	"fastframe/internal/experiments"
	"fastframe/internal/table"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: table2|table5|table6|fig6|fig7a|fig7b|fig8|coverage|all")
		rows      = flag.Int("rows", 4_000_000, "synthesized Flights rows")
		seed      = flag.Uint64("seed", 42, "dataset and scan seed")
		delta     = flag.Float64("delta", exec.DefaultDelta, "per-query error probability")
		roundRows = flag.Int("round", 40_000, "round size R: looks at R/16, R/8, R/4, R/2 rows, then every R (paper: 40000)")
		parallel  = flag.Int("parallel", 1, "goroutines a look's bound recomputation may use (from 2048 groups up); 0 = one per CPU (results are identical)")
	)
	flag.Parse()

	par := *parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	cfg := experiments.Config{
		Rows:        *rows,
		Seed:        *seed,
		Delta:       *delta,
		RoundRows:   *roundRows,
		Strategy:    exec.Active,
		Parallelism: par,
	}

	if err := run(*exp, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "ffbench:", err)
		os.Exit(1)
	}
}

func run(exp string, cfg experiments.Config) error {
	needTable := exp != "table2" && exp != "coverage"
	var tab *table.Table
	if needTable {
		fmt.Printf("generating flights table: rows=%d seed=%d delta=%.0e round=%d\n",
			cfg.Rows, cfg.Seed, cfg.Delta, cfg.RoundRows)
		start := time.Now()
		var err error
		tab, err = experiments.BuildTable(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("generated in %.2fs (%d blocks)\n\n", time.Since(start).Seconds(), tab.Layout().NumBlocks())
	}

	do := func(name string) bool { return exp == name || exp == "all" }

	if do("table2") {
		fmt.Println("== Table 2: error bounder pathologies (measured) ==")
		experiments.WriteTable2(os.Stdout, experiments.Table2())
		fmt.Println()
	}
	if do("table34") {
		fmt.Println("== Tables 3 & 4: dataset and query descriptions ==")
		if err := experiments.WriteTable34(os.Stdout, tab); err != nil {
			return err
		}
		fmt.Println()
	}
	if do("table5") {
		fmt.Println("== Table 5: speedup over Exact per error bounder ==")
		rows, err := experiments.Table5(tab, cfg)
		if err != nil {
			return err
		}
		experiments.WriteTable5(os.Stdout, rows)
		fmt.Println()
	}
	if do("table6") {
		fmt.Println("== Table 6: speedup over Scan per sampling strategy (Bernstein+RT) ==")
		rows, err := experiments.Table6(tab, cfg)
		if err != nil {
			return err
		}
		experiments.WriteTable6(os.Stdout, rows)
		fmt.Println()
	}
	if do("fig6") {
		fmt.Println("== Figure 6: wall time and blocks fetched vs selectivity (F-q1[eps=.5]) ==")
		pts, err := experiments.Fig6(tab, cfg)
		if err != nil {
			return err
		}
		experiments.WriteFig6(os.Stdout, pts)
		fmt.Println()
	}
	if do("fig7a") {
		fmt.Println("== Figure 7(a): requested vs achieved relative error (F-q1[ORD]) ==")
		pts, err := experiments.Fig7a(tab, cfg)
		if err != nil {
			return err
		}
		experiments.WriteFig7a(os.Stdout, pts)
		fmt.Println()
	}
	if do("fig7b") {
		fmt.Println("== Figure 7(b): blocks fetched vs HAVING threshold (F-q2) ==")
		res, err := experiments.Fig7b(tab, cfg)
		if err != nil {
			return err
		}
		experiments.WriteFig7b(os.Stdout, res)
		fmt.Println()
	}
	if do("fig8") {
		fmt.Println("== Figure 8: blocks fetched vs min departure time (F-q3) ==")
		pts, err := experiments.Fig8(tab, cfg)
		if err != nil {
			return err
		}
		experiments.WriteFig8(os.Stdout, pts)
		fmt.Println()
	}
	if do("coverage") {
		fmt.Println("== Coverage study: asymptotic vs SSI interval miss rates (§1 motivation) ==")
		ccfg := experiments.CoverageConfig{Seed: cfg.Seed}
		experiments.WriteCoverage(os.Stdout, experiments.Coverage(ccfg), ccfg)
		fmt.Println()
	}
	switch exp {
	case "table2", "table34", "table5", "table6", "fig6", "fig7a", "fig7b", "fig8", "coverage", "all":
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}
