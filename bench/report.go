package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json: the one place metric names, units,
// directions and regression bounds are fixed.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // lower | higher
	Bound  float64 `json:"bound"`  // end-to-end only
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// stamp records where and on what a report was measured.
type stamp struct {
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	CPUModel   string         `json:"cpu_model"`
	GitSHA     string         `json:"git_sha"`
	Seed       uint64         `json:"seed"`
	Clients    int            `json:"clients"`
	Seconds    float64        `json:"seconds"`
	TableRows  int            `json:"table_rows"`
	Requests   map[string]int `json:"requests_generated"`
}

func newStamp(seed uint64, clients int, seconds float64, ws []workload) stamp {
	st := stamp{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), GitSHA: gitSHA(),
		Seed: seed, Clients: clients, Seconds: seconds, TableRows: tableRows,
		Requests: make(map[string]int),
	}
	for _, w := range ws {
		st.Requests[w.name] = w.count
	}
	return st
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA is the checkout's commit, or "unknown" outside a git
// repository (the driver's checkouts are plain directories).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// report is the file a run writes and -compare reads.
type report struct {
	Stamp     stamp            `json:"stamp"`
	Mode      string           `json:"mode"` // e2e | trace
	Repeat    int              `json:"repeat"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string                   `json:"name"`
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]metricSummary `json:"metrics"`
	Info      map[string]any           `json:"info,omitempty"` // of the last run
}

// metricSummary is one metric over the report's runs.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Spread float64   `json:"spread"` // (max − min) ÷ median
	Values []float64 `json:"values"`
}

// fold merges the runs (each one result per workload, same order) into
// per-workload medians and spreads.
func (r *report) fold(runs [][]runResult) {
	for wi, first := range runs[0] {
		wr := workloadReport{Name: first.Workload, Correct: true, Metrics: make(map[string]metricSummary)}
		for _, run := range runs {
			res := run[wi]
			wr.Correct = wr.Correct && res.Correct
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.Info = res.Info
			for name, m := range res.Metrics {
				s := wr.Metrics[name]
				s.Unit = m.Unit
				s.Values = append(s.Values, m.Value)
				wr.Metrics[name] = s
			}
		}
		for name, s := range wr.Metrics {
			sorted := sortedCopy(s.Values)
			s.Median, s.Min, s.Max = median(sorted), sorted[0], sorted[len(sorted)-1]
			s.Spread = spread(sorted)
			wr.Metrics[name] = s
		}
		r.Workloads = append(r.Workloads, wr)
	}
}

func (r *report) write(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// print writes the stamp and, per workload, every metric by name with
// its unit: BENCHMARK.json's metrics first and in its order, then any
// other the run measured.
func (r *report) print(w io.Writer, spec *benchSpec) {
	st := r.Stamp
	fmt.Fprintf(w, "# %s run: seed %d, %d clients, %g s, %d rows | nproc %d GOMAXPROCS %d %s | %s | git %s\n",
		r.Mode, st.Seed, st.Clients, st.Seconds, st.TableRows, st.NProc, st.GOMAXPROCS, st.GoVersion, st.CPUModel, st.GitSHA)
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "\n## %s  (correct=%v, attempted=%d, failed=%d, generated=%d)\n",
			wr.Name, wr.Correct, wr.Attempted, wr.Failed, st.Requests[wr.Name])
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		if r.Repeat > 1 {
			fmt.Fprintln(tw, "metric\tmedian\tunit\tmin\tmax\tspread")
		} else {
			fmt.Fprintln(tw, "metric\tvalue\tunit")
		}
		for _, name := range metricOrder(wr.Metrics, spec) {
			m := wr.Metrics[name]
			if r.Repeat > 1 {
				fmt.Fprintf(tw, "%s\t%.6g\t%s\t%.6g\t%.6g\t%.2f%%\n", name, m.Median, m.Unit, m.Min, m.Max, 100*m.Spread)
			} else {
				fmt.Fprintf(tw, "%s\t%.6g\t%s\n", name, m.Median, m.Unit)
			}
		}
		tw.Flush()
		for _, key := range []string{"fail_ratio", "interval_miss_ratio", "intervals_checked", "tts_samples", "tts_p95_percentile_used", "ttfi_samples", "ttfi_p95_percentile_used", "first_error", "drain_error"} {
			if v, ok := wr.Info[key]; ok {
				fmt.Fprintf(w, "%s: %v\n", key, v)
			}
		}
		if table, ok := wr.Info["layer_table"].(string); ok {
			fmt.Fprint(w, table)
		}
	}
	fmt.Fprintln(w)
}

func metricOrder(have map[string]metricSummary, spec *benchSpec) []string {
	var order []string
	seen := make(map[string]bool)
	for _, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			if _, ok := have[m.Name]; ok && !seen[m.Name] {
				order = append(order, m.Name)
				seen[m.Name] = true
			}
		}
	}
	var rest []string
	for name := range have {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	return append(order, rest...)
}

// checkSpreads is -repeat's self-test: every end-to-end metric's
// run-to-run spread must stay within its own bound, or a regression of
// that size could not be told from noise.
func (r *report) checkSpreads(w io.Writer, spec *benchSpec) bool {
	ok := true
	for _, wr := range r.Workloads {
		for _, ms := range spec.EndToEnd {
			if m, have := wr.Metrics[ms.Name]; have && m.Spread > ms.Bound {
				fmt.Fprintf(w, "UNSTEADY %s %s: spread %.2f%% exceeds bound %.2f%%\n", wr.Name, ms.Name, 100*m.Spread, 100*ms.Bound)
				ok = false
			}
		}
	}
	return ok
}
