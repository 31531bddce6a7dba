// Command cxserve serves a corpus of concurrent XML documents over HTTP:
// the catalog + query service that turns the framework's single-document
// engine into a collection-serving system (persistent collections are the
// "ongoing work" of the paper's §1).
//
// Usage:
//
//	cxserve -dir corpus/ [-addr :8080] [-budget 512] [-cache 256]
//	        [-query-timeout 10s] [-max-visited 0] [-slow-query 0]
//	        [-debug-addr :6060] [-log-format text]
//
// The corpus directory may mix source forms, one document per entry:
//
//	ms.gdag        binary GODDAG files (cxparse -save ms.gdag, or core.Save)
//	notes.xml      single-file representations, sniffed automatically
//	               (standoff, milestones, fragmentation, plain XML)
//	boethius/      a directory of per-hierarchy XML files — one
//	               distributed concurrent document named "boethius"
//
// Documents load lazily on first use, are index-warmed before serving,
// and are managed by a byte-budgeted LRU (-budget, in MiB; 0 = unlimited).
// Concurrent requests against one document evaluate in parallel on the
// shared GODDAG under its read lock; concurrent first touches of a cold
// document trigger exactly one load.
//
// Endpoints (see internal/server for the full contract):
//
//	POST   /query        {"doc":"ms","query":"//dmg/overlapping::w"}
//	                     {"doc":"ms","flwor":"for $w in //w return $w"}
//	                     optional "format": "json" (default) | "text" |
//	                     "count", optional "limit": max encoded result
//	                     nodes (clamped to -max-results)
//	GET    /docs         catalogued documents + stats
//	GET    /docs/ID      one document (?load=1 forces a load)
//	DELETE /docs/ID      evict it / clear a cached load failure
//	POST   /docs/ID/edit apply a JSON op batch as one prevalidated
//	                     transaction, persisted on commit (atomic
//	                     temp-file + rename next to the source)
//	POST   /docs/ID/undo revert the last committed transaction
//	POST   /docs/ID/redo re-apply the last undone transaction
//	GET    /healthz      liveness
//	GET    /stats        catalog, request, and query-cache counters,
//	                     plus per-route latency quantiles
//	GET    /metrics      Prometheus text exposition of every counter,
//	                     gauge, and latency histogram
//	GET    /debug/requests  bounded ring of recent slow/errored queries
//
// Documents are editable unless -readonly is set: queries run under
// per-document read locks, edit batches under the write lock, so
// readers always see a consistent snapshot.
//
// Request lifecycles: -query-timeout is the default end-to-end deadline
// of every request (a /query body may tighten it with "timeoutMS",
// never loosen it); when it expires mid-evaluation the client gets a
// 504 and the evaluator actually stops — lock waits, cold loads, and
// the query engine's amortized checkpoints all cooperate with the
// deadline, and a client that disconnects aborts its evaluation the
// same way. -max-visited additionally bounds the nodes one evaluation
// may visit (413 when exhausted), so a single hostile query cannot
// monopolize a core regardless of deadline. -slow-query logs and counts
// evaluations slower than the threshold, and logs slower edits, undos
// and redos with their lockWait/log/apply/checkpoint breakdown; /stats
// reports cancelled,
// timed-out, budget-exceeded, and slow-query totals.
//
// Observability: one metrics registry spans the server and the catalog;
// GET /metrics exposes it in Prometheus text format and /stats reads
// the same series, so the two surfaces cannot drift. A /query body may
// set "trace": true to get a per-stage breakdown (decode, lock wait,
// cold load, plan, eval, encode) with the response — explain-analyze
// for one request. Logs are structured (log/slog); -log-format picks
// text or json. -debug-addr opens a second listener with net/http/pprof,
// /metrics, and /debug/requests — profiling stays off the serving port.
//
// Durability: with -wal (the default) every edit batch, undo and redo
// is committed by appending it to a per-document write-ahead log
// (<id>.wal, next to the source) and fsyncing it; the <id>.gdag file is
// a checkpoint, rewritten only once the log has grown past it and at
// shutdown. A crash is recovered by replaying the log records past the
// checkpoint on the next start. With -wal=false every commit is saved
// in full instead. A disk that keeps failing degrades the affected
// document — then the whole catalog — to read-only (503 on writes;
// /healthz reports "degraded") while reads continue. -max-inflight bounds concurrently served
// requests; excess load is shed with 503 + Retry-After instead of
// queuing without bound, and handler panics are logged and answered
// with a JSON 500 rather than killing the connection.
//
// Examples:
//
//	cxserve -dir corpus &
//	curl -s localhost:8080/docs
//	curl -s -X POST localhost:8080/query \
//	     -d '{"doc":"ms","query":"count(//line/covered::w)"}'
//
// Shutdown: SIGINT/SIGTERM drain in-flight requests (up to 5s), then
// checkpoint every document with logged edits and close the logs, so
// the next start replays nothing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		dir        = flag.String("dir", "", "corpus directory (required)")
		budgetMB   = flag.Int64("budget", 0, "resident-document byte budget in MiB (0 = unlimited)")
		cacheSize  = flag.Int("cache", 256, "compiled-query LRU capacity")
		timeout    = flag.Duration("query-timeout", 10*time.Second, "default end-to-end request deadline (0 = none)")
		maxVisited = flag.Int("max-visited", 0, "max nodes one query evaluation may visit (0 = unlimited)")
		slowQuery  = flag.Duration("slow-query", 0, "log queries and edits slower than this, with their stage breakdown (0 = disabled)")
		maxBody    = flag.Int64("max-body", 1<<20, "maximum /query body bytes")
		maxResults = flag.Int("max-results", 10000, "default cap on encoded result nodes (-1 = unlimited)")
		readonly   = flag.Bool("readonly", false, "disable the edit/undo/redo endpoints")
		wal        = flag.Bool("wal", true, "commit edits through a write-ahead log and checkpoint periodically (false: save every commit in full)")
		inflight   = flag.Int("max-inflight", 256, "maximum concurrently served requests (-1 = unlimited)")
		debugAddr  = flag.String("debug-addr", "", "side listener for pprof + /metrics + /debug/requests (off by default)")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
	)
	flag.DurationVar(timeout, "timeout", *timeout, "alias for -query-timeout (kept for compatibility)")
	flag.Parse()
	if *dir == "" {
		fatal(errors.New("missing -dir corpus directory"))
	}

	var logger *slog.Logger
	switch *logFormat {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		fatal(fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat))
	}

	// One registry spans every layer: the catalog registers its load,
	// lock-wait, WAL, and residency series into the same namespace the
	// server's HTTP and query-cache series live in, and GET /metrics
	// exposes them all.
	reg := obs.NewRegistry()
	cat, err := catalog.Open(*dir, catalog.Options{Budget: *budgetMB << 20, DisableWAL: !*wal, Obs: reg})
	if err != nil {
		fatal(err)
	}
	srv := server.New(cat, server.Config{
		QueryCache:  *cacheSize,
		MaxBody:     *maxBody,
		MaxResults:  *maxResults,
		Timeout:     *timeout,
		MaxVisited:  *maxVisited,
		SlowQuery:   *slowQuery,
		ReadOnly:    *readonly,
		MaxInflight: *inflight,
		Obs:         reg,
		Logger:      logger,
	})

	if *debugAddr != "" {
		go func() {
			ds := &http.Server{
				Addr:              *debugAddr,
				Handler:           srv.DebugHandler(),
				ReadHeaderTimeout: 5 * time.Second,
			}
			logger.Info("debug listener", "addr", *debugAddr)
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "cxserve: serving %d documents from %s on %s\n",
		len(cat.IDs()), *dir, *addr)

	select {
	case err := <-done:
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "cxserve: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		fatal(err)
	}
	if err := cat.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cxserve:", err)
	os.Exit(1)
}
