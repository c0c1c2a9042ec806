// Command ffserved is the FastFrame query daemon: it loads persisted
// tables once, owns one long-lived Engine, and serves approximate SQL
// over HTTP to many concurrent per-token tenants — the paper's
// interactive online-aggregation loop as a shared service.
//
//	ffgen -rows 1000000 -table flights.ff
//	ffserved -addr :8080 -table flights=flights.ff \
//	    -dim airports=airports.csv:Origin \
//	    -token alice=s3cret,budget=1e-9,rate=10,conc=4 \
//	    -usage-log usage.jsonl
//
// Endpoints (see the internal/serve package for wire formats):
//
//	POST /v1/query    one-shot: {"sql": "...", "args": [...]} → result
//	POST /v1/stream   NDJSON/SSE: one line per round, final result last
//	GET  /v1/explain  ?sql=... → logical plan
//	GET  /v1/stats    usage counters per tenant and global
//	GET  /healthz     liveness (no auth)
//
// Tenants authenticate with "Authorization: Bearer <token>"; each has
// its own session δ budget, token-bucket rate limit and concurrency
// cap (-token spec or -tokens file, one spec per line; with neither, a
// single anonymous unlimited tenant is created). Each query runs as its
// own scan on its request's goroutine. On SIGTERM/SIGINT the
// daemon stops admitting, aborts in-flight scans at their next round
// boundary — every streamed response still ends with a valid partial
// interval — flushes the usage log, and exits 0.
//
// -cpuprofile FILE writes a CPU profile of serving: it starts once the
// tables are loaded and is flushed on drain, after the listener has
// shut down; read it with "go tool pprof -top ffserved FILE".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"

	"fastframe"
	"fastframe/internal/cliload"
	"fastframe/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		tokenFile    = flag.String("tokens", "", "tenant token file (one name=token[,key=val...] spec per line, #-comments)")
		seed         = flag.Uint64("seed", 42, "scan starting-position seed (fixed: answers reproduce across restarts)")
		queryTimeout = flag.Duration("query-timeout", 30*time.Second, "per-query execution cap; expiry yields a valid partial interval (0 = none)")
		maxBody      = flag.Int64("max-body", serve.DefaultMaxBody, "request body cap in bytes")
		keepAlive    = flag.Duration("stream-keepalive", serve.DefaultStreamKeepAlive, "SSE keepalive comment interval for /v1/stream (negative = none)")
		usageLog     = flag.String("usage-log", "", "append usage records (JSONL) to this file")
		drainWait    = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown deadline")
		poolBytes    = flag.Int64("pool-bytes", 0, "open persisted tables out-of-core, paging blocks through a shared buffer pool with this decoded-byte budget (0 = load everything resident)")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of serving to this file: from after the tables load until the drain")
		degraded     = flag.Bool("degraded-reads", false, "keep answering past permanently quarantined storage blocks: their rows stay unobserved and are charged at catalog worst case, so intervals remain conservatively valid (responses are marked degraded); default is to fail such queries with a structured storage_error")
		tables       cliload.Specs
		csvTables    cliload.Specs
		dims         cliload.Specs
		tokens       cliload.Specs
	)
	flag.Var(&tables, "table", "persisted table as name=path (a v4 file, written by ffgen -table / Table.WriteTo); repeatable")
	flag.Var(&csvTables, "csv-table", "CSV fact table as name=path#col:kind,... (kind float or cat), streamed and scrambled at startup; repeatable")
	flag.Var(&dims, "dim", "dimension CSV as name=path:key, attached to the fact column named key on every fact table; repeatable")
	flag.Var(&tokens, "token", "tenant spec name=token[,delta=D][,budget=B][,rate=R][,burst=N][,conc=C]; repeatable")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ffserved -table name=path [flags]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if len(tables) == 0 && len(csvTables) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	eng := fastframe.NewEngine()
	var pool *fastframe.BufferPool
	if *poolBytes > 0 {
		pool = fastframe.NewBufferPool(*poolBytes)
	}
	names, err := cliload.LoadTables(eng, tables, pool, log.Printf)
	if err != nil {
		fatal(err)
	}
	csvNames, err := cliload.LoadCSVTables(eng, csvTables, *seed, log.Printf)
	if err != nil {
		fatal(err)
	}
	names = append(names, csvNames...)
	if err := cliload.LoadDims(eng, names, dims, log.Printf); err != nil {
		fatal(err)
	}
	var profile *os.File
	if *cpuProfile != "" {
		if profile, err = os.Create(*cpuProfile); err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(profile); err != nil {
			fatal(err)
		}
	}

	cfg := serve.Config{
		Options:         []fastframe.Option{fastframe.WithSeed(*seed)},
		QueryTimeout:    *queryTimeout,
		MaxBody:         *maxBody,
		DegradedReads:   *degraded,
		StreamKeepAlive: *keepAlive,
	}
	if cfg.Tenants, err = tenantConfigs(tokens, *tokenFile); err != nil {
		fatal(err)
	}
	if *usageLog != "" {
		f, err := os.OpenFile(*usageLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		cfg.UsageLog = f
	}

	srv, err := serve.New(eng, cfg)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("ffserved: listening on %s (%d tables, %d tenants)", *addr, len(names), len(cfg.Tenants))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case s := <-sig:
		log.Printf("ffserved: %v: draining (in-flight scans abort at their next round boundary)", s)
	case err := <-errCh:
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	// Stop admitting and cancel in-flight queries first — handlers then
	// finish writing their (valid, partial) final lines — and only then
	// close the listener and wait out the connections.
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("ffserved: drain: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("ffserved: shutdown: %v", err)
	}
	if profile != nil {
		pprof.StopCPUProfile()
		if err := profile.Close(); err != nil {
			log.Printf("ffserved: -cpuprofile: %v", err)
		}
	}
	log.Printf("ffserved: stopped")
}

// tenantConfigs merges -token flags and the -tokens file; with neither
// present a single anonymous unlimited tenant is created (every
// request runs as "anonymous" with the engine's default δ).
func tenantConfigs(specs []string, file string) ([]serve.TenantConfig, error) {
	var out []serve.TenantConfig
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if out, err = serve.ParseTenantFile(f); err != nil {
			return nil, fmt.Errorf("-tokens %s: %w", file, err)
		}
	}
	for _, spec := range specs {
		cfg, err := serve.ParseTenantSpec(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, cfg)
	}
	if len(out) == 0 {
		log.Printf("ffserved: no -token/-tokens given; serving unauthenticated as tenant %q", "anonymous")
		out = []serve.TenantConfig{{Name: "anonymous"}}
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ffserved:", err)
	os.Exit(1)
}
