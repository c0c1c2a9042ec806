package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Verdicts of -compare.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares one metric's medians. worse is how much the new median
// is worse than the old, as a share of the old. A spread wider than the
// bound on either side means a change of the bound's size cannot be
// told from run-to-run noise: unresolved, never "unchanged".
func judge(ms metricSpec, old, cur metricSummary) (worse float64, verdict string) {
	if old.Median != 0 {
		worse = (cur.Median - old.Median) / old.Median
		if ms.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case old.Spread > ms.Bound || cur.Spread > ms.Bound:
		return worse, verdictUnresolved
	case worse > ms.Bound:
		return worse, verdictRegressed
	default:
		return worse, verdictOK
	}
}

// compareReports prints one row per workload × end-to-end metric with
// both medians, the ratio and its base, and a verdict. It returns an
// error when any row regressed.
func compareReports(w io.Writer, spec *benchSpec, oldPath, newPath string) error {
	old, err := readReport(oldPath)
	if err != nil {
		return err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "old: %s (git %s, seed %d, %d runs)\nnew: %s (git %s, seed %d, %d runs)\n\n",
		oldPath, old.Stamp.GitSHA, old.Stamp.Seed, old.Repeat, newPath, cur.Stamp.GitSHA, cur.Stamp.Seed, cur.Repeat)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tunit\tnew/old\told spread\tnew spread\tbound\tverdict")
	regressed := 0
	for _, ow := range old.Workloads {
		var nw *workloadReport
		for i := range cur.Workloads {
			if cur.Workloads[i].Name == ow.Name {
				nw = &cur.Workloads[i]
			}
		}
		if nw == nil {
			continue
		}
		for _, ms := range spec.EndToEnd {
			om, ok1 := ow.Metrics[ms.Name]
			nm, ok2 := nw.Metrics[ms.Name]
			if !ok1 || !ok2 {
				continue
			}
			_, verdict := judge(ms, om, nm)
			if verdict == verdictRegressed {
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%.4f of %.6g\t%.2f%%\t%.2f%%\t%.0f%% %s\t%s\n",
				ow.Name, ms.Name, om.Median, nm.Median, ms.Unit, nm.Median/om.Median, om.Median,
				100*om.Spread, 100*nm.Spread, 100*ms.Bound, ms.Better, verdict)
		}
	}
	tw.Flush()
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}
