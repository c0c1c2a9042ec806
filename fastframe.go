// Package fastframe is a sampling-optimized in-memory column store for
// approximate aggregate queries with distribution-sensitive,
// sample-size-independent confidence-interval guarantees. It reproduces
// the system of Macke, Aliakbarpour, Diakonikolas, Parameswaran and
// Rubinfeld, "Rapid Approximate Aggregation with Distribution-Sensitive
// Interval Guarantees" (ICDE 2021).
//
// The package answers aggregate queries — lists of AVG, SUM, COUNT(*),
// MEDIAN, PERCENTILE, VAR, STDDEV and COUNT(DISTINCT) over columns or
// arithmetic expressions, with predicates, GROUP BY, and JOINs over
// star/snowflake dimension tables (JOIN … ON fk = dim.key, dimension
// predicates =, != and IN) — from a scramble (a randomly permuted copy
// of the table), stopping as soon as rigorous confidence intervals are
// tight enough for the query's purpose: a requested error budget, a
// HAVING threshold decided, a top-K separated, or all groups ordered.
// The intervals hold for every sample size (PAC semantics, Definition 1
// of the paper), not just asymptotically. Engine documents the SQL
// grammar.
//
// The headline bounder is BernsteinRT: the empirical Bernstein–Serfling
// inequality (no pessimistic mass allocation) wrapped with the paper's
// RangeTrim meta-algorithm (no phantom outlier sensitivity). Hoeffding-
// style and Anderson/DKW bounders are provided for comparison, along
// with the Scan and Active sampling strategies and a
// simulated Flights workload mirroring the paper's evaluation.
//
// Quick start — SQL through an Engine session:
//
//	tab, _ := fastframe.GenerateFlights(1_000_000, 42)
//	eng := fastframe.NewEngine()
//	eng.Register("flights", tab)
//	res, _ := eng.Query(ctx,
//		"SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD' WITHIN 5%")
//	fmt.Println(res.Groups[0].Answers[0]) // e.g. [11.2, 12.4] around 11.8
//
// A result carries one shape: Result.Aggs lists the SELECT-list
// aggregates and every group's Answers slice aligns with it.
//
// or the fluent builder against a Table:
//
//	q := fastframe.Avg("DepDelay").
//		Where("Origin", "ORD").
//		StopAtRelError(0.05)
//	res, _ := tab.Query(ctx, q, fastframe.WithDelta(1e-12))
//
// Repeated traffic prepares once and binds '?' parameters per run —
// and can pull the tightening intervals round by round instead of
// waiting for the final answer:
//
//	stmt, _ := eng.Prepare(
//		"SELECT AVG(DepDelay) FROM flights WHERE Origin = ? WITHIN ?%")
//	res, _ := stmt.Query(ctx, "ORD", 5.0)
//	rows, _ := stmt.Stream(ctx, "LAX", 1.0)
//	defer rows.Close()
//	for p := range rows.Rounds() {
//		fmt.Println(p.Round, p.Groups[0].Answers[0])
//	}
//
// (One-shot Engine.Query text is cached in an LRU plan cache, so it
// skips re-parsing too; the fastframe/driver package additionally
// exposes the engine through database/sql.)
//
// Execution is context-aware: cancellation or a deadline stops the
// scan at the next round boundary and returns the partial result with
// still-valid intervals (Result.Aborted is set). An Engine additionally
// maintains a session-level δ error budget across queries.
package fastframe

// Version is the library version.
const Version = "1.0.0"
