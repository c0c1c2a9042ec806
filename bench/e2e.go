package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"fastframe"
)

const (
	tableRows = 4_000_000
	outDir    = "bench/out"
	// failedLatency stands in for the latency of a request that failed:
	// it misses every latency limit, so it sorts above any real sample.
	failedLatency = 60 * time.Second
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload's outcome in one run.
type runResult struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info holds numbers reported beside the metrics: sample counts,
	// the percentile actually used, ratios with their base, and the
	// server's own counters.
	Info map[string]any `json:"info,omitempty"`
}

// setupRepeats is how many times each timed set-up step runs; the
// median is reported, so one page-cache or scheduler hiccup does not
// read as a set-up regression. Like every time metric of the run the
// steps are timed at reference speed (see speedProbe).
const setupRepeats = 3

// tableFile is the persisted Flights table of one run.
type tableFile struct {
	path      string
	generateS float64
	writeS    float64 // median of setupRepeats writes, at reference speed
	fileBytes int64
}

// buildTable generates the Flights table and persists it under outDir.
// The caller removes the file.
func buildTable(seed uint64) (*fastframe.Table, *tableFile, error) {
	t0 := time.Now()
	tab, err := fastframe.GenerateFlights(tableRows, seed)
	if err != nil {
		return nil, nil, err
	}
	tf := &tableFile{
		path:      filepath.Join(outDir, fmt.Sprintf("flights_%d_%d.ff", seed, os.Getpid())),
		generateS: time.Since(t0).Seconds(),
	}
	var writes []float64
	for i := 0; i < setupRepeats; i++ {
		took, err := timeAtReferenceSpeed(func() (err error) {
			tf.fileBytes, err = writeTable(tab, tf.path)
			return err
		})
		if err != nil {
			os.Remove(tf.path)
			return nil, nil, fmt.Errorf("persisting table: %w", err)
		}
		writes = append(writes, took)
	}
	tf.writeS = median(writes)
	return tab, tf, nil
}

func writeTable(tab *fastframe.Table, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := tab.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// prepared is a workload with its inputs made: the request list and
// the exact answers.
type prepared struct {
	w     workload
	reqs  []request
	truth map[string]*truth
}

func prepare(ctx context.Context, tab *fastframe.Table, ws []workload, seed uint64) ([]prepared, error) {
	out := make([]prepared, len(ws))
	for i, w := range ws {
		reqs := w.generate(seed)
		truth, err := groundTruth(ctx, tab, reqs)
		if err != nil {
			return nil, err
		}
		out[i] = prepared{w: w, reqs: reqs, truth: truth}
	}
	return out, nil
}

// runEndToEnd runs the untraced benchmark once: it builds the table,
// then for each workload spawns ffserved, drives it and stops it.
func runEndToEnd(ctx context.Context, bin string, ws []workload, seed uint64, clients int, seconds float64) ([]runResult, error) {
	tab, tf, err := buildTable(seed)
	if err != nil {
		return nil, err
	}
	defer os.Remove(tf.path)
	preps, err := prepare(ctx, tab, ws, seed)
	if err != nil {
		return nil, err
	}
	// The load generator no longer needs the table; the server is the
	// only process that should hold it while latencies are measured.
	tab = nil
	runtime.GC()
	debug.FreeOSMemory()

	var out []runResult
	for _, p := range preps {
		res, err := runWorkload(ctx, bin, tf, p, seed, clients, seconds)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.w.name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// warmUps returns the first request of every template: sent once
// before timing starts, they bring the plan cache, the heap and
// (out-of-core) the pool's freelists into being.
func (p prepared) warmUps() []*request {
	var out []*request
	seen := make(map[int]bool)
	for i := range p.reqs {
		if len(out) == len(p.w.templates) {
			break
		}
		if rq := &p.reqs[i]; !seen[rq.template] {
			seen[rq.template] = true
			out = append(out, rq)
		}
	}
	return out
}

func warmUp(ctx context.Context, url string, p prepared) error {
	c := newClient(url, p.truth)
	defer c.close()
	for _, rq := range p.warmUps() {
		if s := c.do(ctx, rq); s.err != nil {
			return fmt.Errorf("warm-up: %w", s.err)
		}
	}
	return nil
}

// startWarm spawns ffserved, waits for /healthz and warms it up; it
// returns the server and how long spawn → healthy and the warm-up took,
// at reference speed.
func startWarm(ctx context.Context, bin string, tf *tableFile, p prepared, seed uint64) (srv *server, spawnS, warmS float64, err error) {
	logPath := filepath.Join(outDir, "ffserved_"+p.w.name+".log")
	spawnS, err = timeAtReferenceSpeed(func() (err error) {
		srv, err = startServer(ctx, bin, tf.path, logPath, p.w, seed)
		return err
	})
	if err != nil {
		return nil, 0, 0, err
	}
	warmS, err = timeAtReferenceSpeed(func() error { return warmUp(ctx, srv.url, p) })
	if err != nil {
		srv.kill()
		return nil, 0, 0, err
	}
	return srv, spawnS, warmS, nil
}

func runWorkload(ctx context.Context, bin string, tf *tableFile, p prepared, seed uint64, clients int, seconds float64) (runResult, error) {
	var res runResult
	var srv *server
	var spawns, warms []float64
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return res, err
			}
		}
		var spawnS, warmS float64
		var err error
		if srv, spawnS, warmS, err = startWarm(ctx, bin, tf, p, seed); err != nil {
			return res, err
		}
		spawns, warms = append(spawns, spawnS), append(warms, warmS)
	}

	speed := newSpeedProbe()
	samples, wall := drive(ctx, httpCaller(srv, p.truth, speed.idle), p.reqs, clients, seconds)
	for i := range samples {
		s := &samples[i]
		s.slow = speed.slowdown(s.sent + s.cycle/2)
	}
	rss, rssErr := srv.rssPeakMB()
	st, stErr := srv.stats(ctx)
	stopErr := srv.stop()
	if err := errors.Join(rssErr, stErr); err != nil {
		return res, err
	}

	res = summarize(p, samples, wall, clients)
	res.Metrics["setup_s"] = metric{tf.writeS + median(spawns) + median(warms), "s"}
	res.Metrics["server_rss_peak_mb"] = metric{rss, "MB"}
	res.Info["setup_table_generate_s"] = tf.generateS
	res.Info["setup_table_write_s"] = tf.writeS
	res.Info["setup_server_spawn_s"] = median(spawns)
	res.Info["setup_server_warm_s"] = median(warms)
	res.Info["wall_s"] = wall.Seconds()
	res.Info["speed_probes"] = len(speed.took)
	res.Info["server_stats"] = st
	if stopErr != nil {
		res.Correct = false
		res.Info["drain_error"] = stopErr.Error()
		fmt.Fprintf(os.Stderr, "%s: %v\n", p.w.name, stopErr)
	}
	return res, nil
}

// summarize turns the samples of one run into the client-side metrics.
// Every time is first brought to reference speed (see speedProbe):
// measured on the recording box, the median latency of a 20 s run
// wanders by ±11 % with the neighbours' load, at reference speed by
// ±1.5 %.
func summarize(p prepared, samples []sample, wall time.Duration, clients int) runResult {
	res := runResult{
		Workload: p.w.name, Attempted: len(samples),
		Metrics: make(map[string]metric), Info: make(map[string]any),
	}
	var tts, ttfi, rawTTS, slow []float64
	var cycle, cpu float64
	var blocks, checked, missed, refused int
	byTemplate := make([][]float64, len(p.w.templates))
	var firstErr error
	for _, s := range samples {
		lat, first := ms(s.tts)/s.slow, ms(s.ttfi)/s.slow
		if s.err != nil {
			res.Failed++
			if firstErr == nil {
				firstErr = s.err
			}
			if s.refused {
				refused++
			}
			lat, first = ms(failedLatency), ms(failedLatency)
		} else {
			blocks += s.blocks
			checked += s.verdict.checked
			missed += s.verdict.missed
			cycle += ms(s.cycle) / s.slow
			cpu += ms(s.cpu) / s.slow
			slow = append(slow, s.slow)
			ti := p.reqs[s.index].template
			byTemplate[ti] = append(byTemplate[ti], lat)
			if !s.stream {
				rawTTS = append(rawTTS, ms(s.tts))
			}
		}
		if s.stream {
			ttfi = append(ttfi, first)
		} else {
			tts = append(tts, lat)
		}
	}
	ok := float64(res.Attempted - res.Failed)

	// One client completes its requests in the sum of their cycles; n
	// clients share them.
	res.Metrics["qps"] = metric{float64(clients) * ok / (cycle / 1e3), "1/s"}
	res.Metrics["server_cpu_ms_per_query"] = metric{cpu / ok, "ms"}
	res.Info["slowdown_median"] = median(slow)
	res.Info["raw_qps"] = ok / wall.Seconds()
	sort.Float64s(rawTTS)
	res.Info["raw_tts_deciles_ms"] = deciles(rawTTS)

	sort.Float64s(tts)
	sort.Float64s(ttfi)
	p50, _ := percentile(tts, 0.50)
	p95, used := percentile(tts, 0.95)
	res.Metrics["tts_p50_ms"] = metric{p50, "ms"}
	res.Metrics["tts_p95_ms"] = metric{p95, "ms"}
	res.Info["tts_samples"] = len(tts)
	res.Info["tts_p95_percentile_used"] = used
	p50, _ = percentile(ttfi, 0.50)
	p95, used = percentile(ttfi, 0.95)
	res.Metrics["ttfi_p50_ms"] = metric{p50, "ms"}
	res.Metrics["ttfi_p95_ms"] = metric{p95, "ms"}
	res.Info["ttfi_samples"] = len(ttfi)
	res.Info["ttfi_p95_percentile_used"] = used
	res.Metrics["blocks_per_query"] = metric{float64(blocks) / ok, "count"}
	res.Info["tts_deciles_ms"] = deciles(tts)
	res.Info["ttfi_deciles_ms"] = deciles(ttfi)

	missRatio := 0.0
	if checked > 0 {
		missRatio = float64(missed) / float64(checked)
	}
	res.Info["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
	res.Info["refused"] = refused
	res.Info["interval_miss_ratio"] = missRatio
	res.Info["intervals_checked"] = checked
	res.Info["intervals_missed"] = missed
	if firstErr != nil {
		res.Info["first_error"] = firstErr.Error()
	}
	templates := make(map[string]any)
	for ti, lat := range byTemplate {
		templates[p.w.templates[ti].name] = map[string]any{"requests": len(lat), "latency_p50_ms": median(lat)}
	}
	res.Info["templates"] = templates
	// The intervals hold with probability 1 − δ each, so more than a δ
	// share of misses, or any failed request, is a wrong answer.
	res.Correct = res.Failed == 0 && missRatio <= tenantDelta && checked > 0
	return res
}

// deciles returns the 10th to 90th percentiles of sorted: the shape of
// a latency distribution, for reading a run's report.
func deciles(sorted []float64) []float64 {
	out := make([]float64, 0, 9)
	for d := 1; d <= 9 && len(sorted) > 0; d++ {
		out = append(out, sorted[len(sorted)*d/10])
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
