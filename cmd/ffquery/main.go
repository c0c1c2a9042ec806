// Command ffquery runs one approximate SQL query against a synthesized
// Flights table (registered as "flights") and prints per-group
// confidence intervals, alongside the exact answer for comparison:
//
//	ffquery "SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD' WITHIN 10%"
//	ffquery "SELECT AVG(DepDelay) FROM flights GROUP BY Airline HAVING AVG(DepDelay) > 8"
//	ffquery -bounder hoeffding "SELECT AVG(DepDelay) FROM flights GROUP BY Origin ORDER BY AVG(DepDelay) DESC LIMIT 3"
//	ffquery -timeout 500ms "SELECT COUNT(*) FROM flights WHERE DepTime > 1800 WITHIN 20%"
//	ffquery -stream "SELECT AVG(DepDelay) FROM flights GROUP BY DayOfWeek WITHIN 2%"
//
// With -stream the query runs as a pull-based cursor and every
// interval-recomputation round prints a progress line, so the
// intervals can be watched tightening until the stopping rule fires —
// the paper's interactive online-aggregation loop.
//
// With -url the query is not run locally at all: it is POSTed to a
// running ffserved daemon (-token supplies the tenant's bearer token)
// and the response — one-shot /v1/query, or /v1/stream per-round lines
// with -stream — renders exactly like local mode; -exact additionally
// requests the server's exact answer for the comparison column:
//
//	ffquery -url http://localhost:8080 -token s3cret \
//	    "SELECT AVG(DepDelay) FROM flights GROUP BY Airline WITHIN 5%"
//	ffquery -url http://localhost:8080 -stream "SELECT COUNT(*) FROM flights WITHIN 10%"
//
// The supported grammar (see the Engine documentation for details):
//
//	SELECT agg [, agg ...]        agg: AVG(expr) | SUM(expr) | COUNT(*) |
//	                                   MEDIAN(expr) | PERCENTILE(expr, p) |
//	                                   VAR(expr) | STDDEV(expr) |
//	                                   COUNT(DISTINCT col)
//	FROM flights
//	[WHERE pred AND ...]          pred: c = 'v' | c IN ('a','b') |
//	                                    c > x | c >= x | c < x | c <= x |
//	                                    c BETWEEN lo AND hi
//	[GROUP BY col, ...]
//	[HAVING AGG(c) > v | < v]     stop: threshold decided per group
//	[ORDER BY AGG(c) [DESC] [LIMIT k]]   stop: top-/bottom-k or full order
//	[WITHIN p% | WITHIN ABS e | EXACT]   stop: CI width target / full scan
//
// Star/snowflake joins: load dimension tables from CSV with the
// repeatable -dim flag and query the join view,
//
//	ffquery -dim airports=airports.csv:Origin \
//	    "SELECT AVG(DepDelay) FROM flights JOIN airports ON flights.Origin = airports.key WHERE airports.region = 'west' WITHIN 5%"
//
// where the spec name=path:key registers the CSV at path as dimension
// "name" (the CSV column headed "key" holds the dimension keys, every
// other column becomes a string attribute) and attaches it to the fact
// column of the same name — here flights.Origin. Dimension predicates
// (dim.attr = / != / IN) compile to fact-side IN key sets, so all
// interval guarantees and block pruning carry over to the join view.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"fastframe"
	"fastframe/internal/cliload"
)

func main() {
	var (
		rows     = flag.Int("rows", 500_000, "synthesized Flights rows (local mode)")
		seed     = flag.Uint64("seed", 42, "dataset seed and scan starting position (local mode)")
		bounder  = flag.String("bounder", "bernstein+rt", "hoeffding|hoeffding+rt|bernstein|bernstein+rt|anderson (local mode)")
		strategy = flag.String("strategy", "active", "scan|active (local mode)")
		delta    = flag.Float64("delta", 0, "per-query error probability (default 1e-15; local mode)")
		timeout  = flag.Duration("timeout", 0, "cancel the query after this long (0 = no limit)")
		exact    = flag.Bool("exact", true, "also compute the exact answer for comparison")
		stream   = flag.Bool("stream", false, "stream per-round interval snapshots while the query runs")
		url      = flag.String("url", "", "client mode: POST the query to the ffserved daemon at this base URL instead of running locally")
		token    = flag.String("token", "", "client mode: tenant bearer token for -url")
		dims     cliload.Specs
	)
	flag.Var(&dims, "dim", "dimension CSV as name=path:key — register the CSV at path as dimension name (key column header = key), attached to the fact column of the same name; repeatable (local mode)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ffquery [flags] \"SELECT ...\"\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	sqlText := flag.Arg(0)

	// -timeout bounds query execution only, so its clock starts when
	// the query does — after data generation in local mode.
	queryCtx := func() (context.Context, context.CancelFunc) {
		if *timeout > 0 {
			return context.WithTimeout(context.Background(), *timeout)
		}
		return context.Background(), func() {}
	}

	if *url != "" {
		ctx, cancel := queryCtx()
		defer cancel()
		cl := &client{base: *url, token: *token}
		if err := cl.run(ctx, sqlText, *stream, *exact); err != nil {
			fatal(err)
		}
		return
	}

	b, err := pickBounder(*bounder)
	if err != nil {
		fatal(err)
	}
	st, err := pickStrategy(*strategy)
	if err != nil {
		fatal(err)
	}

	eng := fastframe.NewEngine()
	// Fail fast on syntax errors and bad -dim specs before the (slower)
	// data generation; the full plan — including compiled join key
	// sets, which need the table registered — prints afterwards.
	if _, err := eng.Explain(sqlText); err != nil {
		fatal(err)
	}
	logf := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	if err := cliload.LoadDims(eng, []string{"flights"}, dims, logf); err != nil {
		fatal(err)
	}

	fmt.Printf("generating %d flights rows (seed %d)...\n", *rows, *seed)
	tab, err := fastframe.GenerateFlights(*rows, *seed)
	if err != nil {
		fatal(err)
	}
	if err := eng.Register("flights", tab); err != nil {
		fatal(err)
	}
	if plan, err := eng.Explain(sqlText); err != nil {
		fatal(err)
	} else {
		fmt.Printf("plan: %s\n", plan)
	}

	opts := []fastframe.Option{
		fastframe.WithBounder(b),
		fastframe.WithStrategy(st),
		fastframe.WithSeed(*seed),
	}
	if *delta > 0 {
		opts = append(opts, fastframe.WithDelta(*delta))
	}
	ctx, cancel := queryCtx()
	defer cancel()
	var res *fastframe.Result
	if *stream {
		res, err = streamQuery(ctx, eng, sqlText, opts)
	} else {
		res, err = eng.Query(ctx, sqlText, opts...)
	}
	if err != nil {
		fatal(err)
	}

	var ex *fastframe.ExactResult
	if *exact {
		// The ground-truth comparison deliberately ignores -timeout:
		// it exists to judge the approximate answer. Use -exact=false
		// to skip it.
		ex, err = eng.QueryExact(context.Background(), sqlText)
		if err != nil {
			fatal(err)
		}
	}
	printResult(res, ex)
}

// printResult renders the approximate result (and the optional exact
// comparison) — shared by local and client mode, so the two render
// identically. Multi-aggregate SELECT lists print one table section per
// aggregate, in list order.
func printResult(res *fastframe.Result, ex *fastframe.ExactResult) {
	fmt.Printf("\napprox: %.3fs, %d blocks fetched, %d rows covered, %d rounds, stopped=%v exhausted=%v aborted=%v\n",
		res.Duration.Seconds(), res.BlocksFetched, res.RowsCovered, res.Rounds, res.Stopped, res.Exhausted, res.Aborted)
	if ex != nil {
		fmt.Printf("exact:  %.3fs (speedup %.1fx)\n",
			ex.Duration.Seconds(), ex.Duration.Seconds()/res.Duration.Seconds())
	}

	for k, a := range res.Aggs {
		if len(res.Aggs) > 1 {
			fmt.Printf("\n-- %s --", a)
		}
		fmt.Printf("\n%-12s %12s %12s %12s %10s %12s\n", "group", "lo", "estimate", "hi", "samples", "exact")
		for _, g := range res.Groups {
			iv := g.Answers[k]
			truth := "-"
			if ex != nil {
				if e := ex.Group(g.Key); e != nil {
					truth = fmt.Sprintf("%.4f", e.Stats[k])
				}
			}
			key := g.Key
			if key == "" {
				key = "(all)"
			}
			fmt.Printf("%-12s %12.4f %12.4f %12.4f %10d %12s\n", key, iv.Lo, iv.Estimate, iv.Hi, g.Samples, truth)
		}
	}
}

// printProgress renders one per-round streaming line — shared by local
// and client mode. A multi-aggregate query prints one interval line per
// SELECT-list aggregate under the round header, so each statistic's
// convergence can be watched independently.
func printProgress(p fastframe.Progress) {
	widestAt := func(k int) float64 {
		widest := 0.0
		for _, g := range p.Groups {
			widest = max(widest, g.Answers[k].Width())
		}
		return widest
	}
	if len(p.Aggs) == 1 {
		fmt.Printf("round %3d: %9d rows, %7d blocks, %3d active groups, widest %s CI %.4f\n",
			p.Round, p.RowsCovered, p.BlocksFetched, p.ActiveGroups, p.Aggs[0], widestAt(0))
		return
	}
	fmt.Printf("round %3d: %9d rows, %7d blocks, %3d active groups\n",
		p.Round, p.RowsCovered, p.BlocksFetched, p.ActiveGroups)
	for k, a := range p.Aggs {
		fmt.Printf("  [%d] %-16s widest CI %.4f\n", k+1, a, widestAt(k))
	}
}

// streamQuery runs the query through the prepared-statement streaming
// cursor, printing one line per interval-recomputation round.
func streamQuery(ctx context.Context, eng *fastframe.Engine, sqlText string, opts []fastframe.Option) (*fastframe.Result, error) {
	stmt, err := eng.Prepare(sqlText, opts...)
	if err != nil {
		return nil, err
	}
	rows, err := stmt.Stream(ctx)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	for p := range rows.Rounds() {
		printProgress(p)
	}
	return rows.Final()
}

func pickBounder(name string) (fastframe.Bounder, error) {
	switch name {
	case "hoeffding":
		return fastframe.Hoeffding, nil
	case "hoeffding+rt":
		return fastframe.HoeffdingRT, nil
	case "bernstein":
		return fastframe.Bernstein, nil
	case "bernstein+rt":
		return fastframe.BernsteinRT, nil
	case "anderson":
		return fastframe.Anderson, nil
	default:
		return 0, fmt.Errorf("unknown bounder %q", name)
	}
}

func pickStrategy(name string) (fastframe.Strategy, error) {
	switch name {
	case "scan":
		return fastframe.ScanStrategy, nil
	case "active":
		return fastframe.ActiveStrategy, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q (valid: scan, active)", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ffquery:", err)
	os.Exit(1)
}
