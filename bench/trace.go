package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"fastframe"
	"fastframe/internal/serve"
	"fastframe/internal/sql"
)

// oocPoolBytes is the buffer pool of the out-of-core table in the
// traced run, the same 8 MiB ooc_mix gives ffserved.
const oocPoolBytes = 8 << 20

// traceEnv is what every traced workload shares: the table file opened
// both ways and the numbers that do not depend on the workload.
type traceEnv struct {
	tf       *tableFile
	resident *fastframe.Table
	// ooc is the table the in-process server pages through pool. The
	// replays page through a second handle with a pool of its own, so
	// that a replay meets the cache state its original met: both pools
	// see the same scans in the same order, each once.
	ooc, oocReplay   *fastframe.Table
	pool, poolReplay *fastframe.BufferPool
	fixed            map[string]metric
}

// runTraced is the in-process run: no child server, no sockets. It
// opens the table file resident and through an 8 MiB pool, runs the
// fixed probes once, then replays each workload's leading requests one
// at a time through every layer's exported functions.
func runTraced(ctx context.Context, ws []workload, seed uint64, seconds float64) ([]runResult, error) {
	tab, tf, err := buildTable(seed)
	if err != nil {
		return nil, err
	}
	defer os.Remove(tf.path)
	preps, err := prepare(ctx, tab, ws, seed)
	if err != nil {
		return nil, err
	}
	tab = nil
	runtime.GC()

	env := &traceEnv{tf: tf, fixed: make(map[string]metric)}
	env.fixed["table.generate_s"] = metric{tf.generateS, "s"}
	env.fixed["table.write_s"] = metric{tf.writeS, "s"}
	t0 := time.Now()
	f, err := os.Open(tf.path)
	if err != nil {
		return nil, err
	}
	env.resident, err = fastframe.ReadTable(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("reading table: %w", err)
	}
	env.fixed["table.read_resident_s"] = metric{time.Since(t0).Seconds(), "s"}
	t0 = time.Now()
	env.pool = fastframe.NewBufferPool(oocPoolBytes)
	defer env.pool.Close()
	if env.ooc, err = fastframe.OpenTable(tf.path, env.pool); err != nil {
		return nil, fmt.Errorf("opening table out-of-core: %w", err)
	}
	defer env.ooc.Close()
	env.fixed["table.open_ooc_ms"] = metric{ms(time.Since(t0)), "ms"}
	env.poolReplay = fastframe.NewBufferPool(oocPoolBytes)
	defer env.poolReplay.Close()
	if env.oocReplay, err = fastframe.OpenTable(tf.path, env.poolReplay); err != nil {
		return nil, fmt.Errorf("opening table out-of-core: %w", err)
	}
	defer env.oocReplay.Close()

	if err := fixedProbes(ctx, env); err != nil {
		return nil, err
	}
	var out []runResult
	for _, p := range preps {
		res, err := traceWorkload(ctx, env, p, seed, seconds)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.w.name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// tracer replays one workload against one in-process server.
type tracer struct {
	p    prepared
	seed uint64
	srv  *serve.Server
	// srvEng serves; its plan-cache counters stay the server's own.
	// hitEng replays a bind whose text the cache holds, missEng (cache
	// disabled) one whose text is new, resEng replays out-of-core scans
	// against the resident table.
	srvEng, hitEng, missEng, resEng *fastframe.Engine
	outOfCore                       bool
	log                             spanLog
	began                           time.Time
	seenText                        map[string]bool
}

func newEngine(tab *fastframe.Table, opts ...fastframe.EngineOption) (*fastframe.Engine, error) {
	eng := fastframe.NewEngine(opts...)
	return eng, eng.Register("flights", tab)
}

func newTracer(env *traceEnv, p prepared, seed uint64) (*tracer, error) {
	tr := &tracer{p: p, seed: seed, outOfCore: p.w.poolBytes > 0, seenText: make(map[string]bool)}
	tab, replay := env.resident, env.resident
	if tr.outOfCore {
		tab, replay = env.ooc, env.oocReplay
	}
	var err error
	if tr.srvEng, err = newEngine(tab); err != nil {
		return nil, err
	}
	if tr.hitEng, err = newEngine(replay); err != nil {
		return nil, err
	}
	if tr.missEng, err = newEngine(replay, fastframe.WithPlanCacheSize(0)); err != nil {
		return nil, err
	}
	if tr.resEng, err = newEngine(env.resident); err != nil {
		return nil, err
	}
	tenant, err := serve.ParseTenantSpec(fmt.Sprintf("bench=%s,delta=%g", tenantToken, tenantDelta))
	if err != nil {
		return nil, err
	}
	// The same configuration cmd/ffserved builds from the benchmark's
	// flags.
	tr.srv, err = serve.New(tr.srvEng, serve.Config{
		Tenants:      []serve.TenantConfig{tenant},
		Options:      []fastframe.Option{fastframe.WithSeed(seed)},
		QueryTimeout: 30 * time.Second,
	})
	return tr, err
}

// serveOnce sends one request through Server.ServeHTTP on a recorder.
func (tr *tracer) serveOnce(rq *request) (rec *httptest.ResponseRecorder, start time.Time, took time.Duration) {
	path := "/v1/query"
	if rq.stream {
		path = "/v1/stream"
	}
	hreq := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(rq.body))
	hreq.Header.Set("Authorization", "Bearer "+tenantToken)
	rec = httptest.NewRecorder()
	start = time.Now()
	tr.srv.ServeHTTP(rec, hreq)
	return rec, start, time.Since(start)
}

// runOptions are the options ffserved runs a request's scan with.
func (tr *tracer) runOptions(rq *request) []fastframe.Option {
	opts := []fastframe.Option{fastframe.WithSharedScan(), fastframe.WithSeed(tr.seed), fastframe.WithDelta(tenantDelta)}
	if mr := tr.p.w.templates[rq.template].maxRows; mr > 0 {
		opts = append(opts, fastframe.WithMaxRows(mr))
	}
	return opts
}

// scan is one replayed execution: the way the request's handler runs
// it (one-shot Query, or a Rows cursor pulled round by round).
type scan struct {
	took   time.Duration
	rounds []time.Duration // stream only: offset of each round's end
	snaps  []fastframe.Progress
	res    *fastframe.Result
	alloc  uint64
}

func (tr *tracer) scanOn(ctx context.Context, eng *fastframe.Engine, rq *request) (scan, error) {
	var sc scan
	stmt, err := eng.Prepare(rq.sql)
	if err != nil {
		return sc, err
	}
	bound, err := stmt.Bind(rq.args...)
	if err != nil {
		return sc, err
	}
	opts := tr.runOptions(rq)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if rq.stream {
		rows, err := bound.Stream(ctx, opts...)
		if err != nil {
			return sc, err
		}
		for rows.Next() {
			sc.rounds = append(sc.rounds, time.Since(start))
			sc.snaps = append(sc.snaps, rows.Snapshot())
		}
		sc.res, err = rows.Final()
		rows.Close()
		if err != nil {
			return sc, err
		}
	} else if sc.res, err = bound.Query(ctx, opts...); err != nil {
		return sc, err
	}
	sc.took = time.Since(start)
	runtime.ReadMemStats(&after)
	sc.alloc = after.TotalAlloc - before.TotalAlloc
	return sc, nil
}

// timed runs fn and returns how long it took.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// requestTrace is what one traced request contributes to the metrics.
type requestTrace struct {
	handle, engineBind, sqlPrepare, sqlBind time.Duration
	prepareMiss, prepareHit, stmtBind       time.Duration
	exec, execResident, wireResult          time.Duration
	wireProgress                            []time.Duration
	wireBytes, lines, rounds, rows, blocks  int
	firstRound                              time.Duration
	laterRounds                             []time.Duration
	stopped, stream                         bool
	alloc                                   uint64
	sample                                  sample
}

// traceRequest times one request at every layer boundary and records
// its spans.
func (tr *tracer) traceRequest(ctx context.Context, rq *request) (requestTrace, error) {
	rt := requestTrace{stream: rq.stream}

	// serve.request: the one timed call; everything below replays it.
	rec, start, handle := tr.serveOnce(rq)
	rt.handle = handle
	rt.sample = sample{index: rq.index, stream: rq.stream}
	readResponse(rq, rec.Code, rec.Body, start, &rt.sample, tr.p.truth[rq.truthKey])
	if rt.sample.err != nil {
		return rt, nil // counted as failed by the caller
	}
	rt.lines = rt.sample.lines
	miss := !tr.seenText[rq.sql]
	tr.seenText[rq.sql] = true

	// sql: the raw parse and the template bind.
	var tmpl *sql.Template
	var err error
	rt.sqlPrepare = timed(func() { tmpl, err = sql.Prepare(rq.sql) })
	if err != nil {
		return rt, err
	}
	rt.sqlBind = timed(func() { _, err = tmpl.Bind(rq.args...) })
	if err != nil {
		return rt, err
	}

	// engine: Prepare on a text the cache has not seen and on one it
	// holds, then Stmt.Bind.
	rt.prepareMiss = timed(func() { _, err = tr.missEng.Prepare(rq.sql) })
	if err != nil {
		return rt, err
	}
	if _, err = tr.hitEng.Prepare(rq.sql); err != nil { // untimed: puts the text in the cache
		return rt, err
	}
	var stmt *fastframe.Stmt
	rt.prepareHit = timed(func() { stmt, err = tr.hitEng.Prepare(rq.sql) })
	if err != nil {
		return rt, err
	}
	rt.stmtBind = timed(func() { _, err = stmt.Bind(rq.args...) })
	if err != nil {
		return rt, err
	}
	rt.engineBind = rt.prepareHit + rt.stmtBind
	if miss {
		rt.engineBind = rt.prepareMiss + rt.stmtBind
	}

	// exec: the scan, the way this request's handler runs it.
	sc, err := tr.scanOn(ctx, tr.hitEng, rq)
	if err != nil {
		return rt, err
	}
	rt.exec, rt.alloc = sc.took, sc.alloc
	rt.rounds, rt.rows, rt.blocks, rt.stopped = sc.res.Rounds, sc.res.RowsCovered, sc.res.BlocksFetched, sc.res.Stopped
	var resident scan
	if tr.outOfCore {
		if resident, err = tr.scanOn(ctx, tr.resEng, rq); err != nil {
			return rt, err
		}
		rt.execResident = resident.took
	}

	// serve wire: result and per-round progress encoding.
	acct := serve.Accounting{Tenant: "bench", DeltaCharged: tenantDelta}
	rt.wireResult = timed(func() {
		var raw []byte
		if rq.stream {
			raw, err = json.Marshal(serve.StreamLine{Result: serve.FromResult(sc.res), Accounting: &acct})
		} else {
			raw, err = json.Marshal(serve.QueryResponse{Result: serve.FromResult(sc.res), Accounting: acct})
		}
		rt.wireBytes = len(raw)
	})
	if err != nil {
		return rt, err
	}
	for _, snap := range sc.snaps {
		d := timed(func() { _, err = json.Marshal(serve.StreamLine{Progress: serve.FromProgress(snap)}) })
		if err != nil {
			return rt, err
		}
		rt.wireProgress = append(rt.wireProgress, d)
	}

	// Spans: the root as measured, the replays laid out from its start.
	at := start.Sub(tr.began)
	root := tr.log.add("serve.request", at, at+handle, -1, rq.index)
	bind := tr.log.add("engine.bind", at, at+rt.engineBind, root, rq.index)
	inner := at
	if miss {
		tr.log.add("sql.prepare", inner, inner+rt.sqlPrepare, bind, rq.index)
		inner += rt.sqlPrepare
	}
	tr.log.add("sql.bind", inner, inner+rt.sqlBind, bind, rq.index)
	at += rt.engineBind
	run := tr.log.add("exec.run", at, at+sc.took, root, rq.index)
	prev := time.Duration(0)
	for k, end := range sc.rounds {
		round := tr.log.add(fmt.Sprintf("exec.round[%d]", k), at+prev, at+end, run, rq.index)
		if k == 0 {
			rt.firstRound = end
		} else {
			rt.laterRounds = append(rt.laterRounds, end-prev)
		}
		if tr.outOfCore && k < len(resident.rounds) {
			resPrev := time.Duration(0)
			if k > 0 {
				resPrev = resident.rounds[k-1]
			}
			// The scans are byte-identical, so what a round costs
			// beyond its resident twin is the block store's.
			if wait := (end - prev) - (resident.rounds[k] - resPrev); wait > 0 {
				tr.log.add(fmt.Sprintf("blockstore.wait[%d]", k), at+prev, at+prev+wait, round, rq.index)
			}
		}
		prev = end
	}
	if tr.outOfCore && !rq.stream {
		if wait := sc.took - resident.took; wait > 0 {
			tr.log.add("blockstore.wait", at, at+wait, run, rq.index)
		}
	}
	at += sc.took
	for k, d := range rt.wireProgress {
		tr.log.add(fmt.Sprintf("serve.wire_progress[%d]", k), at, at+d, root, rq.index)
		at += d
	}
	tr.log.add("serve.wire_result", at, at+rt.wireResult, root, rq.index)
	return rt, nil
}

// serverCounters is what the traced run reads from GET /v1/stats on
// the in-process server.
func (tr *tracer) serverCounters() (serve.Stats, error) {
	hreq := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	hreq.Header.Set("Authorization", "Bearer "+tenantToken)
	rec := httptest.NewRecorder()
	tr.srv.ServeHTTP(rec, hreq)
	var st serve.Stats
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", rec.Code)
	}
	return st, json.Unmarshal(rec.Body.Bytes(), &st)
}

// inProcess makes callers that send through Server.ServeHTTP.
func (tr *tracer) inProcess() caller {
	return caller{close: func() {}, do: func(_ context.Context, rq *request) sample {
		rec, start, _ := tr.serveOnce(rq)
		s := sample{index: rq.index, stream: rq.stream}
		readResponse(rq, rec.Code, rec.Body, start, &s, tr.p.truth[rq.truthKey])
		return s
	}}
}

// concurrentPhase replays the same requests once from two goroutines,
// the way the end-to-end run loads ffserved, and returns what the
// shared scan saved and what admission refused, from /v1/stats deltas.
func (tr *tracer) concurrentPhase(ctx context.Context, reqs []request) (savedRatio, refusedRatio float64, failed int, err error) {
	before, err := tr.serverCounters()
	if err != nil {
		return 0, 0, 0, err
	}
	samples, _ := drive(ctx, tr.inProcess, reqs, 2, 0)
	after, err := tr.serverCounters()
	if err != nil {
		return 0, 0, 0, err
	}
	refused := 0
	for _, s := range samples {
		if s.err != nil {
			failed++
		}
		if s.refused {
			refused++
		}
	}
	demanded := after.SharedScan.BlocksDemanded - before.SharedScan.BlocksDemanded
	fetched := after.SharedScan.BlocksFetched - before.SharedScan.BlocksFetched
	if demanded > 0 {
		savedRatio = 1 - float64(fetched)/float64(demanded)
	}
	return savedRatio, float64(refused) / float64(len(reqs)), failed, nil
}

func usOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// traceWorkload replays the workload's leading requests and turns the
// spans and counts into the per-layer metrics.
func traceWorkload(ctx context.Context, env *traceEnv, p prepared, seed uint64, seconds float64) (runResult, error) {
	res := runResult{Workload: p.w.name, Metrics: make(map[string]metric), Info: make(map[string]any)}
	for name, m := range env.fixed {
		res.Metrics[name] = m
	}
	tr, err := newTracer(env, p, seed)
	if err != nil {
		return res, err
	}
	defer tr.srv.Shutdown(ctx)
	reqs := p.reqs[:min(p.w.traceCount, len(p.reqs))]
	// One untraced request per template, as the end-to-end run warms
	// ffserved, so the first traced request does not pay for the heap.
	for _, rq := range p.warmUps() {
		tr.serveOnce(rq)
		if _, err := tr.scanOn(ctx, tr.hitEng, rq); err != nil {
			return res, err
		}
	}
	srvBefore, err := tr.serverCounters()
	if err != nil {
		return res, err
	}
	poolBefore := env.pool.Stats()

	tr.began = time.Now()
	var traces []requestTrace
	var checked, missed int
	for i := range reqs {
		// The replay count is fixed so that counts repeat exactly;
		// -seconds only cuts a run short on a much slower machine.
		if seconds > 0 && time.Since(tr.began).Seconds() > 3*seconds {
			break
		}
		rt, err := tr.traceRequest(ctx, &reqs[i])
		if err != nil {
			return res, fmt.Errorf("request %d: %w", i, err)
		}
		res.Attempted++
		if rt.sample.err != nil {
			res.Failed++
			res.Info["first_error"] = rt.sample.err.Error()
			continue
		}
		checked += rt.sample.verdict.checked
		missed += rt.sample.verdict.missed
		traces = append(traces, rt)
	}
	if len(traces) == 0 {
		return res, fmt.Errorf("no request could be traced: %v", res.Info["first_error"])
	}
	poolAfter := env.pool.Stats()
	srvAfter, err := tr.serverCounters()
	if err != nil {
		return res, err
	}
	if err := tr.log.write(filepath.Join(outDir, "trace_"+p.w.name+".json")); err != nil {
		return res, err
	}

	n := float64(len(traces))
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	// avg is the mean over the traced requests, total the sum; the
	// stream-only numbers come from the odd-indexed half.
	total := func(f func(rt *requestTrace) float64) float64 {
		sum := 0.0
		for i := range traces {
			sum += f(&traces[i])
		}
		return sum
	}
	avg := func(f func(rt *requestTrace) float64) float64 { return total(f) / n }
	var self, streamTTS, lines, wireProg, firstRound, laterRound []float64
	for _, rt := range traces {
		self = append(self, us(rt.handle-rt.exec))
		if rt.stream {
			lines = append(lines, float64(rt.lines))
			streamTTS = append(streamTTS, ms(rt.handle))
			wireProg = append(wireProg, usOf(rt.wireProgress)...)
			firstRound = append(firstRound, us(rt.firstRound))
			laterRound = append(laterRound, usOf(rt.laterRounds)...)
		}
	}
	if len(laterRound) == 0 {
		laterRound = firstRound // every stream stopped in its first round
	}
	blockRows := float64(env.resident.NumRows()) / float64(env.resident.NumBlocks())
	rows := total(func(rt *requestTrace) float64 { return float64(rt.rows) })
	blocks := total(func(rt *requestTrace) float64 { return float64(rt.blocks) })
	execNS := total(func(rt *requestTrace) float64 { return float64(rt.exec) })
	stopped := total(func(rt *requestTrace) float64 {
		if rt.stopped {
			return 1
		}
		return 0
	})
	set("sql.prepare_us", avg(func(rt *requestTrace) float64 { return us(rt.sqlPrepare) }), "us")
	set("sql.bind_us", avg(func(rt *requestTrace) float64 { return us(rt.sqlBind) }), "us")
	set("engine.prepare_miss_us", avg(func(rt *requestTrace) float64 { return us(rt.prepareMiss) }), "us")
	set("engine.bind_hit_us", avg(func(rt *requestTrace) float64 { return us(rt.prepareHit + rt.stmtBind) }), "us")
	hits := float64(srvAfter.PlanCache.Hits - srvBefore.PlanCache.Hits)
	misses := float64(srvAfter.PlanCache.Misses - srvBefore.PlanCache.Misses)
	set("engine.plan_cache_hit_ratio", hits/(hits+misses), "ratio")
	set("serve.handle_us", avg(func(rt *requestTrace) float64 { return us(rt.handle) }), "us")
	set("serve.self_us", median(self), "us")
	set("serve.wire_result_us", avg(func(rt *requestTrace) float64 { return us(rt.wireResult) }), "us")
	set("serve.wire_result_bytes", avg(func(rt *requestTrace) float64 { return float64(rt.wireBytes) }), "B")
	set("serve.wire_progress_us", mean(wireProg), "us")
	set("serve.stream_lines_per_query", mean(lines), "count")
	set("serve.stream_tts_p50_ms", median(streamTTS), "ms")
	set("exec.run_ms", execNS/1e6/n, "ms")
	set("exec.first_round_us", mean(firstRound), "us")
	set("exec.round_us", mean(laterRound), "us")
	set("exec.ns_per_row", execNS/rows, "ns")
	set("exec.rounds_per_query", avg(func(rt *requestTrace) float64 { return float64(rt.rounds) }), "count")
	set("exec.rows_per_query", rows/n, "count")
	set("exec.blocks_per_query", blocks/n, "count")
	set("exec.skip_ratio", 1-blocks/(rows/blockRows), "ratio")
	set("exec.early_stop_ratio", stopped/n, "ratio")
	set("exec.alloc_bytes_per_query", avg(func(rt *requestTrace) float64 { return float64(rt.alloc) }), "B")

	// blockstore: pool counters over the traced replay (all zero on a
	// resident workload: the pool is never touched).
	pd := func(a, b int64) float64 { return float64(a - b) }
	phits, pmiss := pd(poolAfter.Hits, poolBefore.Hits), pd(poolAfter.Misses, poolBefore.Misses)
	hitRatio := 0.0
	if phits+pmiss > 0 {
		hitRatio = phits / (phits + pmiss)
	}
	set("blockstore.hit_ratio", hitRatio, "ratio")
	set("blockstore.misses_per_query", pmiss/n, "count")
	set("blockstore.evictions_per_query", pd(poolAfter.Evictions, poolBefore.Evictions)/n, "count")
	set("blockstore.bytes_read_per_query", pd(poolAfter.BytesRead, poolBefore.BytesRead)/n, "B")
	set("blockstore.retries", pd(poolAfter.Retries, poolBefore.Retries), "count")
	set("blockstore.io_errors", pd(poolAfter.IOErrors, poolBefore.IOErrors), "count")
	waitMS := 0.0
	if tr.outOfCore {
		waitMS = avg(func(rt *requestTrace) float64 { return ms(rt.exec - rt.execResident) })
	}
	set("blockstore.wait_ms_per_query", waitMS, "ms")

	// exact: the full-scan baseline on the first distinct statements.
	exactMS, execOfSame, err := tr.exactBaseline(ctx, reqs, traces)
	if err != nil {
		return res, err
	}
	set("exact.run_ms", exactMS, "ms")
	set("exec.speedup_vs_exact", exactMS/execOfSame, "ratio")
	res.Info["speedup_base"] = fmt.Sprintf("exact %.3f ms ÷ approximate %.3f ms over the same statements", exactMS, execOfSame)

	shares, rootNS := layerShares(tr.log.spans)
	for _, layer := range []string{"sql", "engine", "serve", "exec", "blockstore"} {
		set("trace.share."+layer, shares[layer], "ratio")
	}
	selfNS := selfTimes(tr.log.spans)
	var unaccounted int64
	for i, s := range tr.log.spans {
		if s.Parent < 0 {
			unaccounted += selfNS[i]
		}
	}
	set("trace.unaccounted_ratio", float64(unaccounted)/float64(rootNS), "ratio")
	res.Info["layer_table"] = layerTable(shares, rootNS, len(traces))
	res.Info["spans"] = len(tr.log.spans)
	res.Info["replayed"] = len(traces)

	saved, refusedRatio, badConcurrent, err := tr.concurrentPhase(ctx, reqs)
	if err != nil {
		return res, err
	}
	set("exec.shared_saved_ratio", saved, "ratio")
	set("serve.refused_ratio", refusedRatio, "ratio")
	res.Failed += badConcurrent
	res.Attempted += len(reqs)

	missRatio := float64(missed) / float64(max(checked, 1))
	set("check.interval_miss_ratio", missRatio, "ratio")
	set("check.intervals_checked", float64(checked), "count")
	res.Info["interval_miss_ratio"] = missRatio
	res.Info["intervals_checked"] = checked
	res.Correct = res.Failed == 0 && missRatio <= tenantDelta && checked > 0
	return res, nil
}

// exactBaseline times QueryExact on up to eight distinct statements of
// the replayed requests and returns its mean beside the mean traced
// approximate run of the same statements: the paper's headline ratio
// with its base.
func (tr *tracer) exactBaseline(ctx context.Context, reqs []request, traces []requestTrace) (exactMS, execMS float64, err error) {
	const distinct = 8
	execByKey := make(map[string][]float64)
	for _, rt := range traces {
		key := reqs[rt.sample.index].truthKey
		execByKey[key] = append(execByKey[key], ms(rt.exec))
	}
	var keys []string
	first := make(map[string]*request)
	for i := range reqs {
		if _, ok := execByKey[reqs[i].truthKey]; ok && first[reqs[i].truthKey] == nil {
			first[reqs[i].truthKey] = &reqs[i]
			keys = append(keys, reqs[i].truthKey)
		}
	}
	sort.Strings(keys)
	keys = keys[:min(distinct, len(keys))]
	var exact, approx []float64
	for _, key := range keys {
		rq := first[key]
		stmt, err := tr.hitEng.Prepare(rq.exactSQL)
		if err != nil {
			return 0, 0, err
		}
		d := timed(func() { _, err = stmt.QueryExact(ctx, rq.exactArg...) })
		if err != nil {
			return 0, 0, err
		}
		exact = append(exact, ms(d))
		approx = append(approx, mean(execByKey[key]))
	}
	return mean(exact), mean(approx), nil
}
