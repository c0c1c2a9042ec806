// Command bench is FastFrame's benchmark: it builds the real ffserved
// binary, spawns it per workload, drives it over loopback HTTP in a
// closed loop and checks every answer against exact ground truth
// (-trace 0), or replays the same request lists in-process through
// each layer's exported functions to produce per-layer numbers
// (-trace 1). BENCHMARK.json at the repository root names the
// workloads, the metrics and their regression bounds; bench/README.md
// explains them.
//
//	go run ./bench -workload resident_mix -seed 1
//	go run ./bench -trace 1 -workload ooc_mix -seed 1
//	go run ./bench -repeat 3 -o old.json
//	go run ./bench -compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

// options are the command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	repeat   int
	clients  int
	out      string
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for the table, the request list and ffserved's scan start")
	flag.Float64Var(&o.seconds, "seconds", -1, "how long each workload is driven; 0 replays the whole request list once; default run_seconds of BENCHMARK.json")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end run against a child ffserved; 1: in-process traced run, per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 1, "run the selected workloads this many times and report medians and spreads")
	flag.IntVar(&o.clients, "clients", 1, "closed-loop clients, one keep-alive connection each")
	flag.StringVar(&o.out, "o", "", "write the report here (default bench/out/report_<mode>.json)")
	flag.BoolVar(&o.compare, "compare", false, "compare two reports: bench -compare old.json new.json")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after the result has been printed, when a
// correctness or repeatability check failed.
var errIncorrect = errors.New("a check failed; see the report")

func run(o options, args []string) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if o.compare {
		if len(args) != 2 {
			return errors.New("usage: bench -compare old.json new.json")
		}
		return compareReports(os.Stdout, spec, args[0], args[1])
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	if o.repeat < 1 {
		return fmt.Errorf("-repeat %d: want at least 1", o.repeat)
	}
	// More clients than processors would time the scheduler, and the
	// numbers would not compare with a recorder that has the cores.
	if o.clients < 1 || o.clients > runtime.NumCPU() {
		return fmt.Errorf("-clients %d: want 1..%d (nproc)", o.clients, runtime.NumCPU())
	}
	if o.seconds < 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	ws := workloads()
	if o.workload != "all" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		ws = []workload{w}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	// Temp table files and child servers are released on every exit
	// path: a signal cancels ctx and the run unwinds through its defers.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	traced := o.trace == 1
	mode, bin := "e2e", ""
	if traced {
		mode = "trace"
	} else if bin, err = buildServer(ctx, outDir); err != nil {
		return err
	}
	rep := report{Stamp: newStamp(o.seed, o.clients, o.seconds, ws), Mode: mode, Repeat: o.repeat}
	var runs [][]runResult
	for i := 0; i < o.repeat; i++ {
		var res []runResult
		if traced {
			res, err = runTraced(ctx, ws, o.seed, o.seconds)
		} else {
			res, err = runEndToEnd(ctx, bin, ws, o.seed, o.clients, o.seconds)
		}
		if err != nil {
			return err
		}
		runs = append(runs, res)
	}
	rep.fold(runs)

	if o.out == "" {
		o.out = fmt.Sprintf("%s/report_%s.json", outDir, mode)
	}
	if err := rep.write(o.out); err != nil {
		return err
	}
	rep.print(os.Stdout, spec)
	steady := true
	if o.repeat > 1 && !traced {
		steady = rep.checkSpreads(os.Stdout, spec)
	}
	line, correct, err := rep.resultLine(spec, traced)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if !correct || !steady {
		return errIncorrect
	}
	return nil
}

// resultLine is the last line of standard output: one JSON object with
// exactly the keys correct, attempted, failed and metrics. A
// single-workload run reports the metric names of BENCHMARK.json; a run
// of several prefixes each with its workload.
func (r *report) resultLine(spec *benchSpec, traced bool) (string, bool, error) {
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]metric)}
	for _, w := range r.Workloads {
		out.Correct = out.Correct && w.Correct
		out.Attempted += w.Attempted
		out.Failed += w.Failed
		for _, ms := range want {
			m, ok := w.Metrics[ms.Name]
			if !ok {
				return "", false, fmt.Errorf("%s: metric %s of BENCHMARK.json was not measured", w.Name, ms.Name)
			}
			if math.IsNaN(m.Median) || math.IsInf(m.Median, 0) {
				return "", false, fmt.Errorf("%s: metric %s has no finite value", w.Name, ms.Name)
			}
			name := ms.Name
			if len(r.Workloads) > 1 {
				name = w.Name + "." + name
			}
			out.Metrics[name] = metric{m.Median, m.Unit}
		}
	}
	line, err := json.Marshal(out)
	return string(line), out.Correct, err
}
