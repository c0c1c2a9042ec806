// Command ffgen synthesizes the simulated Flights dataset, prints its
// summary statistics (per-airline and per-airport aggregates, the
// ground truth behind the experiment narratives), and optionally writes
// the rows to CSV for inspection with external tools:
//
//	ffgen -rows 100000 -summary
//	ffgen -rows 100000 -csv /tmp/flights.csv
//
// With -table the scrambled table is persisted as a table file
// (Table.WriteTo, format v4), ready to be served by ffserved -table or
// loaded with fastframe.ReadTable — the one-time scramble shuffle then
// amortizes across daemon restarts:
//
//	ffgen -rows 1000000 -table /tmp/flights.ff
//
// With -verify the tool instead checks an existing table file's
// integrity offline — header, footer and every segment checksum, each
// float column's catalog bounds against its zones, plus a full decode of
// every block, each code held to its dictionary and its block-index bit
// and each float value to its block's zone — and exits nonzero if
// anything is damaged, or if the file is in a format other than v4 (v1,
// v2 or v3), which is no longer read and has to be regenerated:
//
//	ffgen -verify /tmp/flights.ff
package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"

	"fastframe"
	"fastframe/internal/exec"
	"fastframe/internal/flights"
	"fastframe/internal/query"
	"fastframe/internal/table"
)

func main() {
	var (
		rows    = flag.Int("rows", 100_000, "rows to synthesize")
		seed    = flag.Uint64("seed", 42, "generator seed")
		block   = flag.Int("block", 0, "scramble block size in rows (0 = the paper's 25; -table writes at most 65536); larger blocks mean fewer, bigger compressed segments in -table output")
		summary = flag.Bool("summary", true, "print aggregate summary")
		csvPath = flag.String("csv", "", "write rows to this CSV file")
		tabPath = flag.String("table", "", "persist the scrambled table (format v4, for ffserved -table / ReadTable)")
		verify  = flag.String("verify", "", "verify this table file's integrity (checksums, catalog bounds, full decode, block index and zone maps) instead of generating; exit 1 on damage")
	)
	flag.Parse()

	if *verify != "" {
		if err := verifyTable(*verify); err != nil {
			fatal(err)
		}
		return
	}

	tab, err := flights.Generate(flights.Config{Rows: *rows, Seed: *seed, BlockSize: *block})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("generated %d rows in %d blocks\n", tab.NumRows(), tab.Layout().NumBlocks())
	rb, err := tab.Bounds(flights.ColDepDelay)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("DepDelay catalog bounds: %s\n", rb)

	if *summary {
		if err := printSummary(tab); err != nil {
			fatal(err)
		}
	}
	if *csvPath != "" {
		if err := writeCSV(tab, *csvPath); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
	if *tabPath != "" {
		if err := writeTable(tab, *tabPath); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *tabPath)
	}
}

// verifyTable runs the offline integrity check and renders the report.
func verifyTable(path string) error {
	rep, err := fastframe.VerifyTable(path)
	if err != nil {
		return err
	}
	fmt.Printf("%s: format v%d, %d rows, %d blocks of %d rows, %d columns\n",
		rep.Path, rep.Version, rep.Rows, rep.NumBlocks, rep.BlockSize, len(rep.Cols))
	for _, c := range rep.Cols {
		if c.BadBlocks == 0 {
			fmt.Printf("  %-12s %d/%d blocks ok\n", c.Name, c.Blocks, c.Blocks)
			continue
		}
		fmt.Printf("  %-12s %d/%d blocks DAMAGED (blocks %v)\n", c.Name, c.BadBlocks, c.Blocks, c.BadBlockIDs)
		for _, e := range c.BadBlockErrors {
			fmt.Printf("    %s\n", e)
		}
	}
	if !rep.OK() {
		return fmt.Errorf("%s: %d damaged blocks", path, rep.BadBlocks)
	}
	fmt.Printf("%s: OK\n", path)
	return nil
}

// writeTable persists the scramble in the binary table format.
func writeTable(tab *table.Table, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if _, err := tab.WriteTo(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printSummary(tab *table.Table) error {
	byAirline, err := exec.RunExact(context.Background(), tab, query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: flights.ColDepDelay}},
		GroupBy: []string{flights.ColAirline},
		Stop:    query.Exhaust(),
	})
	if err != nil {
		return err
	}
	fmt.Println("\nper-airline AVG(DepDelay):")
	for _, g := range sortedByAvg(byAirline) {
		fmt.Printf("  %-4s %9.3f  (n=%d)\n", g.Key, g.Aggs[0].Interval.Estimate, g.Samples)
	}

	byOrigin, err := exec.RunExact(context.Background(), tab, query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: flights.ColDepDelay}},
		GroupBy: []string{flights.ColOrigin},
		Stop:    query.Exhaust(),
	})
	if err != nil {
		return err
	}
	fmt.Println("\nper-airport AVG(DepDelay) (sorted; note the negative and")
	fmt.Println("near-zero means driving F-q5 and the near-max cluster driving F-q8):")
	for _, g := range sortedByAvg(byOrigin) {
		sel := float64(g.Samples) / float64(tab.NumRows())
		fmt.Printf("  %-4s %9.3f  (n=%-7d sel=%.5f)\n", g.Key, g.Aggs[0].Interval.Estimate, g.Samples, sel)
	}
	return nil
}

func sortedByAvg(res *exec.Result) []exec.GroupResult {
	out := append([]exec.GroupResult(nil), res.Groups...)
	sort.Slice(out, func(i, j int) bool {
		return out[i].Aggs[0].Interval.Estimate < out[j].Aggs[0].Interval.Estimate
	})
	return out
}

func writeCSV(tab *table.Table, path string) error {
	delay, err := tab.Float(flights.ColDepDelay)
	if err != nil {
		return err
	}
	depTime, err := tab.Float(flights.ColDepTime)
	if err != nil {
		return err
	}
	origin, err := tab.Cat(flights.ColOrigin)
	if err != nil {
		return err
	}
	airline, err := tab.Cat(flights.ColAirline)
	if err != nil {
		return err
	}
	day, err := tab.Cat(flights.ColDayOfWeek)
	if err != nil {
		return err
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	w := csv.NewWriter(bw)
	if err := w.Write([]string{"Origin", "Airline", "DayOfWeek", "DepTime", "DepDelay"}); err != nil {
		return err
	}
	for i := 0; i < tab.NumRows(); i++ {
		rec := []string{
			origin.Value(origin.Codes[i]),
			airline.Value(airline.Codes[i]),
			day.Value(day.Codes[i]),
			strconv.FormatFloat(depTime.Values[i], 'f', 1, 64),
			strconv.FormatFloat(delay.Values[i], 'f', 3, 64),
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ffgen:", err)
	os.Exit(1)
}
