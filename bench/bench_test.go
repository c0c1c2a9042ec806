package main

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		p     float64
		value float64 // samples are 1..n, so the value is the rank
	}{
		{1000, 0.95, 950}, // 50 beyond: the plain nearest rank
		{220, 0.95, 209},  // 11 beyond
		{200, 0.95, 190},  // exactly 10 beyond
		{100, 0.95, 90},   // p95 would leave 5: lowered to rank n−10
		{30, 0.95, 20},
		{30, 0.50, 15}, // the median is never lowered here
		{10, 0.95, 1},  // too few samples for any tail
		{1, 0.50, 1},
	}
	for _, c := range cases {
		got, used := percentile(seq(c.n), c.p)
		if got != c.value {
			t.Errorf("percentile(1..%d, %g) = %g, want %g", c.n, c.p, got, c.value)
		}
		if beyond := c.n - int(got); c.n > 10 && beyond < 10 {
			t.Errorf("percentile(1..%d, %g) leaves %d samples beyond", c.n, c.p, beyond)
		}
		if want := c.value / float64(c.n); math.Abs(used-want) > 1e-12 {
			t.Errorf("percentile(1..%d, %g) used %g, want %g", c.n, c.p, used, want)
		}
	}
	if v, _ := percentile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("percentile of nothing = %g, want NaN", v)
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := spread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread = %g, want 0.2", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one run = %g, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "serve.request", Start: 0, End: 100, Parent: -1},
		// nested: exec.run has two rounds, one of them with a child
		{ID: 1, Name: "exec.run", Start: 10, End: 70, Parent: 0},
		{ID: 2, Name: "exec.round[0]", Start: 10, End: 30, Parent: 1},
		{ID: 3, Name: "exec.round[1]", Start: 30, End: 60, Parent: 1},
		{ID: 4, Name: "blockstore.wait[1]", Start: 30, End: 45, Parent: 3},
		// overlapping siblings: 70–90 and 80–95 cover 25, not 35
		{ID: 5, Name: "serve.wire_progress[0]", Start: 70, End: 90, Parent: 0},
		{ID: 6, Name: "serve.wire_result", Start: 80, End: 95, Parent: 0},
		// a replay that ran past its parent's end is clipped to it
		{ID: 7, Name: "serve.request", Start: 200, End: 210, Parent: -1},
		{ID: 8, Name: "exec.run", Start: 205, End: 230, Parent: 7},
	}
	want := []int64{
		100 - 60 - 25, // root: minus exec.run, minus the union of the wire spans
		60 - 20 - 30,  // exec.run minus its rounds
		20,            // childless
		30 - 15,
		15,
		20,
		15,
		10 - 5, // only 205–210 of the child lies inside
		25,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	shares, root := layerShares(spans)
	if root != 110 {
		t.Errorf("root time = %d, want 110", root)
	}
	if got, want := shares["blockstore"], 15.0/110; math.Abs(got-want) > 1e-12 {
		t.Errorf("blockstore share = %g, want %g", got, want)
	}
	if got, want := shares["exec"], (10.0+20+15+25)/110; math.Abs(got-want) > 1e-12 {
		t.Errorf("exec share = %g, want %g", got, want)
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, w := range workloads() {
		w.count = 500
		a, b, other := w.generate(7), w.generate(7), w.generate(8)
		if len(a) != w.count {
			t.Fatalf("%s: generated %d requests, want %d", w.name, len(a), w.count)
		}
		same := true
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) || a[i].truthKey != b[i].truthKey {
				t.Fatalf("%s: request %d differs between two runs of seed 7", w.name, i)
			}
			same = same && bytes.Equal(a[i].body, other[i].body)
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 generated the same list", w.name)
		}
	}
}

func TestOutOfCoreReplaysTheResidentList(t *testing.T) {
	res, _ := findWorkload("resident_mix")
	ooc, _ := findWorkload("ooc_mix")
	res.count, ooc.count = 300, 300
	a, b := res.generate(3), ooc.generate(3)
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("request %d: ooc_mix %s, resident_mix %s", i, b[i].body, a[i].body)
		}
	}
}

func TestEvenOneShotOddStream(t *testing.T) {
	w, _ := findWorkload("short_point")
	w.count = 200
	for i, rq := range w.generate(1) {
		if rq.index != i || rq.stream != (i%2 == 1) {
			t.Fatalf("request %d: index %d stream %v", i, rq.index, rq.stream)
		}
	}
}

func TestCycleHoldsTheWholeMix(t *testing.T) {
	for _, w := range workloads() {
		cycle := 0
		for _, tp := range w.templates {
			cycle += tp.weight
		}
		w.count = 3 * cycle
		counts := make([]int, len(w.templates))
		for _, rq := range w.generate(5) {
			counts[rq.template]++
		}
		for ti, tp := range w.templates {
			if counts[ti] != 3*tp.weight {
				t.Errorf("%s: template %s appears %d times in 3 cycles, want %d", w.name, tp.name, counts[ti], 3*tp.weight)
			}
		}
	}
}

func TestInlinedTextsAreUnique(t *testing.T) {
	w, _ := findWorkload("short_point")
	w.count = 2100 // 30 whole cycles of 70
	seen := make(map[string]bool)
	inlined := 0
	for _, rq := range w.generate(1) {
		if !w.templates[rq.template].inline {
			continue
		}
		inlined++
		if strings.Contains(rq.sql, "?") || len(rq.args) != 0 {
			t.Fatalf("inlined request still has placeholders: %s %v", rq.sql, rq.args)
		}
		if seen[rq.sql] {
			t.Fatalf("inlined text repeats: %s", rq.sql)
		}
		seen[rq.sql] = true
	}
	if inlined != w.count/10 {
		t.Errorf("%d of %d requests are inlined, want one in ten", inlined, w.count)
	}
	if got := inlineArgs("a = ? AND b > ? WITHIN ?%", []any{"O'Hare", 1200.0, 20.0000123}); got != "a = 'O''Hare' AND b > 1200 WITHIN 20.0000123%" {
		t.Errorf("inlineArgs = %q", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "tts_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "qps", Better: "higher", Bound: 0.10}
	m := func(median, spread float64) metricSummary { return metricSummary{Median: median, Spread: spread} }
	cases := []struct {
		ms       metricSpec
		old, cur metricSummary
		want     string
	}{
		{lower, m(100, 0.02), m(105, 0.02), verdictOK},
		{lower, m(100, 0.02), m(80, 0.02), verdictOK}, // better is never a regression
		{lower, m(100, 0.02), m(111, 0.02), verdictRegressed},
		{higher, m(100, 0.02), m(95, 0.02), verdictOK},
		{higher, m(100, 0.02), m(89, 0.02), verdictRegressed},
		{higher, m(100, 0.02), m(120, 0.02), verdictOK},
		{lower, m(100, 0.15), m(100, 0.02), verdictUnresolved}, // old runs too noisy to tell
		{lower, m(100, 0.02), m(130, 0.15), verdictUnresolved}, // never "regressed" from noise
	}
	for _, c := range cases {
		if _, got := judge(c.ms, c.old, c.cur); got != c.want {
			t.Errorf("judge(%s better, %g→%g, spreads %g/%g) = %s, want %s",
				c.ms.Better, c.old.Median, c.cur.Median, c.old.Spread, c.cur.Spread, got, c.want)
		}
	}
}

func TestCheckResult(t *testing.T) {
	tr := &truth{groups: map[string][]float64{"AA": {10}, "DL": {5}, "HP": {16}}}
	group := func(key string, lo, hi, est float64) wireGroup {
		return wireGroup{Key: key, Answers: []wireInterval{{Lo: lo, Hi: hi, Estimate: est}}}
	}
	res := &wireResult{Aggs: []string{"AVG"}, Stopped: true, Groups: []wireGroup{
		group("AA", 9, 11, 10.2), group("DL", 4, 6, 5.1), group("HP", 15, 17, 16.3),
	}}
	v, err := checkResult(&request{decision: decideTopK, k: 1}, res, tr)
	if err != nil || v.checked != 4 || v.missed != 0 {
		t.Errorf("correct top-1: %+v, %v", v, err)
	}
	// The estimates rank AA first, the exact values HP: a wrong verdict.
	res.Groups[0] = group("AA", 9, 30, 20)
	if v, _ := checkResult(&request{decision: decideTopK, k: 1}, res, tr); v.missed != 1 {
		t.Errorf("wrong top-1: %+v, want one miss", v)
	}
	if v, _ := checkResult(&request{decision: decideBottomK, k: 1}, res, tr); v.missed != 0 {
		t.Errorf("bottom-1 is still DL: %+v", v)
	}
	// HAVING: every group on its exact side of the threshold.
	if v, _ := checkResult(&request{decision: decideHaving, v: 7}, res, tr); v.missed != 0 {
		t.Errorf("having 7: %+v", v)
	}
	if v, _ := checkResult(&request{decision: decideHaving, v: 18}, res, tr); v.missed != 1 {
		t.Errorf("having 18 with AA estimated at 20: %+v, want one miss", v)
	}
	// An interval that leaves the exact value out is a miss; a verdict
	// is only checked when the server says the rule was met.
	res.Stopped = false
	res.Groups[1] = group("DL", 5.5, 6, 5.7)
	if v, _ := checkResult(&request{decision: decideTopK, k: 1}, res, tr); v.checked != 3 || v.missed != 1 {
		t.Errorf("interval miss: %+v", v)
	}
	if _, err := checkResult(&request{}, &wireResult{Aggs: []string{"AVG"}, Groups: []wireGroup{group("ZZ", 0, 1, 0)}}, tr); err == nil {
		t.Error("unknown group accepted")
	}
	// A point interval from an exhausted scan may differ in the last bits.
	if !contains(1e6+1e-7, 1e6+1e-7, 1e6) || contains(1.1, 1.2, 1) {
		t.Error("contains tolerance is wrong")
	}
}

func TestReadStreamChecksRounds(t *testing.T) {
	ok := `{"progress":{"round":1}}` + "\n" + `{"progress":{"round":2}}` + "\n" + `{"result":{"aggs":["AVG"],"groups":[],"blocks_fetched":9}}` + "\n"
	var s sample
	res, err := readStream(strings.NewReader(ok), time.Now(), &s)
	if err != nil || res.BlocksFetched != 9 || s.lines != 2 || s.ttfi <= 0 {
		t.Errorf("good stream: %+v %+v %v", res, s, err)
	}
	for name, body := range map[string]string{
		"round repeats":    `{"progress":{"round":1}}` + "\n" + `{"progress":{"round":1}}` + "\n" + `{"result":{}}` + "\n",
		"error line":       `{"progress":{"round":1}}` + "\n" + `{"error":{"code":"storage_error","message":"x"}}` + "\n",
		"no terminal line": `{"progress":{"round":1}}` + "\n",
		"no progress":      `{"result":{}}` + "\n",
		"malformed":        `{"progress":` + "\n",
		"line after end":   `{"progress":{"round":1}}` + "\n" + `{"result":{}}` + "\n" + `{"progress":{"round":2}}` + "\n",
	} {
		var s sample
		if _, err := readStream(strings.NewReader(body), time.Now(), &s); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestProcParsing(t *testing.T) {
	if got, err := parseVmHWM("Name:\tffserved\nVmHWM:\t  241664 kB\nVmRSS:\t 1000 kB\n"); err != nil || got != 236 {
		t.Errorf("parseVmHWM = %g, %v; want 236 MB", got, err)
	}
}

// The contract file and the code must name the same workloads, and the
// end-to-end run must produce every bounded metric.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	p, samples := cleanRun(ws[0])
	res := summarize(p, samples, time.Second, 1)
	serverSide := map[string]bool{"setup_s": true, "server_rss_peak_mb": true}
	for _, m := range spec.EndToEnd {
		if _, ok := res.Metrics[m.Name]; !ok && !serverSide[m.Name] {
			t.Errorf("summarize does not produce %s", m.Name)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("clean samples judged incorrect: %+v", res)
	}
}

// cleanRun is a run of 100 requests whose replies take 2 ms each at
// reference speed; the box ran at half speed during the first 50.
func cleanRun(w workload) (prepared, []sample) {
	p := prepared{w: w, reqs: w.generate(1)[:100]}
	var samples []sample
	for i := range p.reqs {
		d, slow := 2*time.Millisecond, 1.0
		if i < 50 {
			d, slow = 2*d, 2
		}
		samples = append(samples, sample{index: i, stream: i%2 == 1, tts: d, ttfi: d / 2, cycle: d, cpu: d / 4, slow: slow,
			blocks: 1, lines: 1, verdict: verdict{checked: 1}})
	}
	return p, samples
}

// Every time metric is taken at reference speed, so the half of the run
// the box spent at half speed leaves no mark, and a failed request
// misses every latency limit.
func TestSummarizeAtReferenceSpeed(t *testing.T) {
	w, _ := findWorkload("resident_mix")
	p, samples := cleanRun(w)
	res := summarize(p, samples, time.Second, 1)
	for name, want := range map[string]float64{
		"tts_p50_ms": 2, "tts_p95_ms": 2, "ttfi_p50_ms": 1, "ttfi_p95_ms": 1,
		"qps": 500, "server_cpu_ms_per_query": 0.5, "blocks_per_query": 1,
	} {
		if got := res.Metrics[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if got := res.Info["raw_qps"]; got != 100.0 {
		t.Errorf("raw_qps = %v, want 100 requests in the 1 s of wall time", got)
	}
	samples[4].err = errTest
	res = summarize(p, samples, time.Second, 1)
	if res.Correct || res.Failed != 1 {
		t.Errorf("a failed request must fail the run: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if got := res.Metrics["tts_p95_ms"].Value; got != 2 {
		t.Errorf("one failure among 50 one-shot requests lies beyond p95: got %g", got)
	}
	for i := 0; i < 24; i += 2 {
		samples[i].err = errTest
	}
	if got := summarize(p, samples, time.Second, 1).Metrics["tts_p95_ms"].Value; got != ms(failedLatency) {
		t.Errorf("failed requests must count as missing the latency limit: p95 = %g", got)
	}
}

var errTest = errors.New("test failure")
