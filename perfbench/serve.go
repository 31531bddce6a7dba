package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/goddag"
	"repro/internal/obs"
	"repro/internal/sacx"
	"repro/internal/server"
	"repro/internal/store"
)

// served is a catalog directory behind the HTTP handler, as cxserve runs
// it: WAL on, one obs registry shared by catalog and server, a 10 s
// request deadline and a 10000-node result cap.
type served struct {
	dir     string
	docs    []*docInput
	ans     [][]answer // [doc][query], from heap-built copies
	bodies  [][][]byte // [doc][query] POST /query bodies
	ingFS   *countingFS
	catFS   *countingFS
	cat     *catalog.Catalog
	handler http.Handler
	ingest  []ingestTimes
}

// newServed generates the documents, ingests each into dir (sacx.Build
// then store.SaveFS) and computes the reference answers from a
// heap-built copy, which it also returns. open then serves the
// directory.
func newServed(r *runner, dir string, comp *compiled, shapeOf []int) (*served, []*goddag.Document, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	var refs []*goddag.Document
	s := &served{dir: dir, ingFS: newCountingFS(ioIngest, r.trace, nil), catFS: newCountingFS(ioCheckpoint, r.trace, nil)}
	for i, sh := range shapeOf {
		in, ref, err := genDoc(r.seed, i, sh)
		if err != nil {
			return nil, nil, err
		}
		ans, err := comp.answersFor(ref)
		if err != nil {
			return nil, nil, fmt.Errorf("reference answers for %s: %w", in.id, err)
		}
		_, t, err := ingest(s.ingFS, gdagPath(dir, in.id), in)
		if err != nil {
			return nil, nil, err
		}
		if r.trace {
			t0 := time.Now()
			if _, err := sacx.NewStream(in.sources, sacx.Options{}); err != nil {
				return nil, nil, fmt.Errorf("scan %s: %w", in.id, err)
			}
			t.scan = time.Since(t0)
		}
		s.docs = append(s.docs, in)
		s.ans = append(s.ans, ans)
		s.ingest = append(s.ingest, t)
		bodies := make([][]byte, len(readMix))
		for qi, q := range readMix {
			bodies[qi] = queryBody(in.id, q)
		}
		s.bodies = append(s.bodies, bodies)
		refs = append(refs, ref)
	}
	return s, refs, nil
}

// open starts the catalog and the server over the directory. budget 0
// means no catalog budget.
func (s *served) open(budget int64) error {
	reg := obs.NewRegistry()
	cat, err := catalog.Open(s.dir, catalog.Options{Budget: budget, FS: s.catFS, Obs: reg})
	if err != nil {
		return err
	}
	s.cat = cat
	s.handler = server.New(cat, server.Config{
		Timeout:    serveTimeout,
		MaxResults: serveMaxResults,
		Obs:        reg,
		Logger:     slog.New(slog.NewTextHandler(os.Stderr, nil)),
	}).Handler()
	return nil
}

// preload sends every query of the mix once for every document through
// the handler, so that documents are resident, lazily materialized
// structure and indexes exist, and compiled queries are cached before
// timing starts. It reports the first wrong answer.
func (s *served) preload() error {
	c := newHTTPClient(s.handler)
	for d := range s.docs {
		for qi, q := range readMix {
			code := c.do("/query", s.bodies[d][qi])
			if !checkResponse(q, code, c.w.body.Bytes(), s.ans[d][qi]) {
				return fmt.Errorf("preload %s %s: status %d, wrong or failed answer", s.docs[d].id, q.name, code)
			}
		}
	}
	return nil
}

// ingestLayer reports the ingest metrics of the setup's saves, for the
// workloads whose ingest happens in setup: they should stay flat there.
func (s *served) ingestLayer(r *runner) {
	ingestMetrics(r, s.ingest, s.ingFS.totals(ioIngest))
	docLayer(r, s.docs)
}

// ingestMetrics reports per-document build, scan, save and storage
// figures of the given ingests and their storage totals.
func ingestMetrics(r *runner, times []ingestTimes, io ioTotals) {
	var build, scan, save, enc []float64
	for _, t := range times {
		build = append(build, float64(t.build))
		scan = append(scan, float64(t.scan))
		save = append(save, float64(t.save))
		enc = append(enc, float64(t.save)-float64(t.fsNS))
	}
	n := float64(len(times))
	r.layer["sacx.build_ms"] = mean(build) / 1e6
	r.layer["sacx.scan_ms"] = mean(scan) / 1e6
	r.layer["store.save_ms"] = mean(save) / 1e6
	r.layer["store.encode_ms"] = mean(enc) / 1e6
	r.layer["faultfs.write_ms"] = float64(io.WriteNS) / n / 1e6
	r.layer["faultfs.sync_ms"] = float64(io.SyncNS) / n / 1e6
	r.layer["faultfs.syncs_per_doc"] = float64(io.Syncs) / n
	r.layer["faultfs.bytes_per_doc"] = float64(io.WriteBytes) / n
}

// docLayer reports the per-document counts of the generated inputs.
func docLayer(r *runner, docs []*docInput) {
	var allocs, elems float64
	for _, d := range docs {
		allocs += float64(d.allocs)
		elems += float64(d.elements)
	}
	r.layer["sacx.allocs_per_doc"] = allocs / float64(len(docs))
	r.layer["goddag.elements_per_doc"] = elems / float64(len(docs))
}

// openLayer times store.OpenMappedDoc (map, header checks, Document())
// directly on the workload's files, twice each, and reports the median.
func openLayer(r *runner, paths []string) error {
	fsys := newCountingFS(ioRead, false, nil)
	var ds []float64
	for rep := 0; rep < 2; rep++ {
		for _, p := range paths {
			t0 := time.Now()
			_, _, err := store.OpenMappedDoc(fsys, p)
			ds = append(ds, float64(time.Since(t0)))
			if err != nil {
				return fmt.Errorf("open %s: %w", p, err)
			}
		}
	}
	r.layer["store.open_us"] = quantile(ds, 0.5) / 1e3
	return nil
}

// pass is what one timed pass measured: its successful operations and
// the process's readings around it.
type pass struct {
	ss     samples
	ops    int // attempted
	failed int
	wall   time.Duration
	peakMB float64
	rt0    runtimeSample
	rt1    runtimeSample
	cat0   catalog.Stats
	cat1   catalog.Stats
}

// perSecond is the pass's completed operations per second.
func (p pass) perSecond() float64 { return float64(len(p.ss)) / p.wall.Seconds() }

// loop is a closed-loop op counter shared by clients: each client takes
// the next op index, until the deadline passes, the limit is reached,
// or stop is set.
type loop struct {
	next     atomic.Int64
	limit    int64 // 0: none
	deadline time.Time
	stop     atomic.Bool
}

func newLoop(d time.Duration, limit int) *loop {
	return &loop{deadline: time.Now().Add(d), limit: int64(limit)}
}

func (l *loop) take() (int64, bool) {
	if l.stop.Load() || !time.Now().Before(l.deadline) {
		return 0, false
	}
	i := l.next.Add(1) - 1
	if l.limit > 0 && i >= l.limit {
		return 0, false
	}
	return i, true
}

// readClient performs one read and reports whether its answer was right
// and how long it took.
type readClient func(op readOp) (ok bool, d time.Duration)

// readLoop runs n closed-loop clients over seq until lp stops them.
// newClient makes each client's read function and, optionally, a
// function run under the pass's lock when the client is done.
func readLoop(n int, seq []readOp, lp *loop, newClient func() (readClient, func())) pass {
	var mu sync.Mutex
	var st pass
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			read, done := newClient()
			var ss samples
			ops, failed := 0, 0
			for {
				i, ok := lp.take()
				if !ok {
					break
				}
				op := seq[i%int64(len(seq))]
				good, d := read(op)
				ops++
				if !good {
					failed++
					continue
				}
				ss = append(ss, sample{Kind: op.Q, Dur: float64(d)})
			}
			mu.Lock()
			st.ss = append(st.ss, ss...)
			st.ops += ops
			st.failed += failed
			if done != nil {
				done()
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return st
}

// handlerReads runs n closed-loop clients sending seq's reads through
// the handler. The first wrong answers are printed to standard error.
func (s *served) handlerReads(n int, seq []readOp, lp *loop) pass {
	return readLoop(n, seq, lp, func() (readClient, func()) {
		cl := newHTTPClient(s.handler)
		shown := 0
		return func(op readOp) (bool, time.Duration) {
			t0 := time.Now()
			code := cl.do("/query", s.bodies[op.Doc][op.Q])
			d := time.Since(t0)
			body := cl.w.body.Bytes()
			if checkResponse(readMix[op.Q], code, body, s.ans[op.Doc][op.Q]) {
				return true, d
			}
			if shown < 3 {
				shown++
				fmt.Fprintf(os.Stderr, "perfbench: %s %s: status %d, want %+v, got %.200s\n",
					s.docs[op.Doc].id, readMix[op.Q].name, code, s.ans[op.Doc][op.Q], body[max(0, len(body)-200):])
			}
			return false, d
		}, nil
	})
}

// layeredReads is handlerReads for the traced run's layered client. It
// also returns the resident bytes the reads materialized.
func (s *served) layeredReads(n int, seq []readOp, lp *loop, comp *compiled, rec *recorder) (pass, int64) {
	var materialized int64
	st := readLoop(n, seq, lp, func() (readClient, func()) {
		lc := &layered{cat: s.cat, comp: comp, rec: rec}
		read := func(op readOp) (bool, time.Duration) {
			return lc.read(s.docs[op.Doc].id, op.Q, s.ans[op.Doc][op.Q])
		}
		return read, func() {
			rec.addAll(lc.spans)
			materialized += lc.materialized
		}
	})
	return st, materialized
}

// measure wraps a pass with the runtime, RSS and catalog readings.
func measure(cat *catalog.Catalog, run func() pass) pass {
	var cat0 catalog.Stats
	if cat != nil {
		cat0 = cat.Stats()
	}
	rss := startRSS()
	rt0 := readRuntime()
	t0 := time.Now()
	st := run()
	st.wall = time.Since(t0)
	st.rt1 = readRuntime()
	st.rt0 = rt0
	st.peakMB = peakMB(rss.end(), st.wall)
	if cat != nil {
		st.cat0, st.cat1 = cat0, cat.Stats()
	}
	return st
}

func isPoint(q int) bool { return readMix[q].class == pointQuery }
func isScan(q int) bool  { return readMix[q].class == scanQuery }

// readQuantile is the q-quantile of a pass's reads that keep accepts,
// summarized over queries by kindQuantile.
func (p pass) readQuantile(q float64, keep func(int) bool) float64 {
	return kindQuantile(p.ss.byKind(len(readMix), keep), q)
}

// readMetrics reports an untraced read pass: the end-to-end metrics
// (when the reads are the workload's headline) and the class breakdown.
func (r *runner) readMetrics(st pass, headline bool) {
	if headline {
		r.e2e["ops_per_s"] = st.perSecond()
		r.e2e["op_p50_ms"] = st.readQuantile(0.5, nil) / 1e6
		r.e2e["op_p90_ms"] = st.readQuantile(0.9, nil) / 1e6
		r.e2e["peak_rss_mb"] = st.peakMB
	}
	r.layer["e2e.point_p50_us"] = st.readQuantile(0.5, isPoint) / 1e3
	r.layer["e2e.point_p90_us"] = st.readQuantile(0.9, isPoint) / 1e3
	r.layer["e2e.scan_p50_ms"] = st.readQuantile(0.5, isScan) / 1e6
	r.layer["e2e.scan_p90_ms"] = st.readQuantile(0.9, isScan) / 1e6
	r.layer["e2e.reads_per_s"] = st.perSecond()
	hits := float64(st.cat1.Hits - st.cat0.Hits)
	loads := float64(st.cat1.Loads - st.cat0.Loads)
	if hits+loads > 0 {
		r.layer["catalog.hit_ratio"] = hits / (hits + loads)
	}
	if st.ops > 0 {
		r.layer["catalog.evictions_per_kreq"] = float64(st.cat1.Evictions-st.cat0.Evictions) / float64(st.ops) * 1000
	}
	r.note("reads: %d in %.2fs, %d failed; loads=%.0f hits=%.0f evictions=%d",
		st.ops, st.wall.Seconds(), st.failed, loads, hits, st.cat1.Evictions-st.cat0.Evictions)
	byQ := st.ss.byKind(len(readMix), nil)
	for i, q := range readMix {
		r.note("  %-24s n=%-6d p50=%9.1fus p90=%9.1fus", q.name, len(byQ[i]),
			quantile(byQ[i], 0.5)/1e3, quantile(byQ[i], 0.9)/1e3)
	}
}

// runtimeMetrics reports the Go runtime's cost over a pass of ops
// operations (requests).
func (r *runner) runtimeMetrics(st pass, ops int) {
	if ops == 0 {
		return
	}
	r.layer["server.allocs_per_req"] = float64(st.rt1.mallocs-st.rt0.mallocs) / float64(ops)
	r.layer["runtime.alloc_kb_per_op"] = float64(st.rt1.allocBytes-st.rt0.allocBytes) / float64(ops) / 1024
	if cpu := st.rt1.totalCPU - st.rt0.totalCPU; cpu > 0 {
		r.layer["runtime.gc_cpu_frac"] = (st.rt1.gcCPU - st.rt0.gcCPU) / cpu
	}
}

// spanLayers reports the layered client's spans.
func spanLayers(layer map[string]float64, rec *recorder, materialized int64, loads uint64) {
	layer["catalog.get_us"] = mean(rec.durations("catalog.get")) / 1e3
	layer["catalog.lock_wait_us"] = mean(rec.durations("catalog.view_wait")) / 1e3
	layer["xpath.plan_us"] = mean(rec.durations("xpath.plan")) / 1e3
	layer["xpath.eval_us"] = mean(rec.durations("xpath.eval")) / 1e3
	layer["xquery.eval_us"] = mean(rec.durations("xquery.eval")) / 1e3
	layer["cliutil.encode_us"] = mean(rec.durations("cliutil.encode")) / 1e3
	if out, n := rec.sumN("cliutil.encode"); n > 0 {
		layer["cliutil.bytes_out"] = float64(out) / float64(n)
	}
	var results int64
	reads := 0
	for _, q := range readMix {
		t, k := rec.sumN("read." + q.name)
		results += t
		reads += k
	}
	if reads > 0 {
		layer["xpath.results"] = float64(results) / float64(reads)
	}
	if loads > 0 {
		layer["goddag.materialized_kb"] = float64(materialized) / float64(loads) / 1024
	}
}

// compareTraced reports what separates the handler from the layered
// client on the same reads: the handler's own share of a point read,
// and the traced pass's p50 against the untraced one.
func (r *runner) compareTraced(untraced, traced samples) {
	n := len(readMix)
	up := kindQuantile(untraced.byKind(n, isPoint), 0.5)
	tp := kindQuantile(traced.byKind(n, isPoint), 0.5)
	r.layer["server.self_us"] = (up - tp) / 1e3
	if u := kindQuantile(untraced.byKind(n, nil), 0.5); u > 0 {
		r.layer["trace.overhead_pct"] = (kindQuantile(traced.byKind(n, nil), 0.5) - u) / u * 100
	}
}

// digestOf hashes a textual rendering of the pre-generated operations.
func digestOf(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%v\n", p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
