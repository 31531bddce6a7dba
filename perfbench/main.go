// Command perfbench is the repository's benchmark: one seeded workload
// per invocation, driven in-process through the same public APIs a user
// reaches — sacx.Build and store.SaveFS for ingest, the server's HTTP
// handler for reads and edits. With -trace 0 it reports the end-to-end
// metrics; with -trace 1 it runs the same untraced pass and then
// replays the operation sequence through each layer's public functions
// with a span around every call, and reports the per-layer metrics.
// DESIGN.md explains the workloads and what every metric should move.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload edit-mix --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics with their units.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/store"
)

// Serving configuration: cxserve's shipped defaults.
const (
	serveTimeout    = 10 * time.Second
	serveMaxResults = 10000
	clients         = 2 // nproc on the reference host; at most this many client goroutines
	setupReps       = 3 // setups per run; setup_s is their median
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload. Their meaning per workload is in DESIGN.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. A metric of a layer a
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"e2e.error_rate", "ratio"},
	{"e2e.point_p50_us", "us"},
	{"e2e.point_p90_us", "us"},
	{"e2e.scan_p50_ms", "ms"},
	{"e2e.scan_p90_ms", "ms"},
	{"e2e.reads_per_s", "1/s"},
	{"e2e.commit_p50_ms", "ms"},
	{"e2e.commit_p90_ms", "ms"},
	{"e2e.write_kb_per_commit", "KB"},
	{"e2e.ingest_mb_per_s", "MB/s"},
	{"e2e.ingest_p50_ms", "ms"},
	{"e2e.disk_bytes_per_content_byte", "ratio"},
	{"sacx.build_ms", "ms"},
	{"sacx.scan_ms", "ms"},
	{"sacx.allocs_per_doc", "count"},
	{"goddag.elements_per_doc", "count"},
	{"goddag.materialized_kb", "KB"},
	{"store.save_ms", "ms"},
	{"store.encode_ms", "ms"},
	{"store.open_us", "us"},
	{"store.mapped_mb", "MB"},
	{"store.wal_ms", "ms"},
	{"store.wal_kb_per_commit", "KB"},
	{"store.checkpoint_ms", "ms"},
	{"store.checkpoint_kb_per_commit", "KB"},
	{"faultfs.write_ms", "ms"},
	{"faultfs.sync_ms", "ms"},
	{"faultfs.syncs_per_doc", "count"},
	{"faultfs.syncs_per_commit", "count"},
	{"faultfs.bytes_per_doc", "bytes"},
	{"catalog.get_us", "us"},
	{"catalog.hit_ratio", "ratio"},
	{"catalog.evictions_per_kreq", "count"},
	{"catalog.lock_wait_us", "us"},
	{"catalog.commit_ms", "ms"},
	{"catalog.undo_ms", "ms"},
	{"catalog.apply_ms", "ms"},
	{"xpath.plan_us", "us"},
	{"xpath.eval_us", "us"},
	{"xquery.eval_us", "us"},
	{"xpath.results", "count"},
	{"cliutil.encode_us", "us"},
	{"cliutil.bytes_out", "bytes"},
	{"server.self_us", "us"},
	{"server.allocs_per_req", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.live_heap_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

var workloads = map[string]func(*runner) error{
	"ingest":     runIngest,
	"warm-query": runWarmQuery,
	"cold-query": runColdQuery,
	"edit-mix":   runEditMix,
}

// runner carries one invocation's settings and what it measured.
type runner struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string // scratch directory of this run, removed at exit
	traceDir string

	setupDurs []float64
	digest    string
	attempted int
	failed    int
	checks    []string // failed correctness checks beyond per-operation ones

	e2e   map[string]float64
	layer map[string]float64
	notes []string
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: ingest, warm-query, cold-query or edit-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 45, "seconds each timed pass measures")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "work"), "parent of the run's scratch directory")
	traceDir := flag.String("tracedir", filepath.Join(".bench_build", "traces"), "where the traced run writes its spans")
	roundPlan := flag.String("round-plan", "", "internal: run one round of a read workload from this plan file")
	round := flag.Int("round", 0, "internal: the round to run")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1, -trace 0|1\n", workloadNames())
		return 2
	}
	r := &runner{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, traceDir: *traceDir,
		e2e: make(map[string]float64), layer: make(map[string]float64),
	}
	if *roundPlan != "" {
		if err := r.round(*roundPlan, *round); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	r.dir = dir
	if err := fn(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return r.report()
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// setup runs fn setupReps times, timing each, and keeps the median as
// setup_s. fn must leave the state of its last call in place.
func (r *runner) setup(fn func(rep int) error) error {
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if err := fn(rep); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.setupDurs = append(r.setupDurs, time.Since(t0).Seconds())
	}
	r.e2e["setup_s"] = quantile(append([]float64(nil), r.setupDurs...), 0.5)
	return nil
}

func (r *runner) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *runner) failCheck(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// report prints the human-readable lines and, last, the JSON result.
func (r *runner) report() int {
	if r.attempted > 0 {
		r.layer["e2e.error_rate"] = float64(r.failed) / float64(r.attempted)
	}
	defs, vals := endToEnd, r.e2e
	if r.trace {
		defs, vals = perLayer, r.layer
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%v ops_digest=%s\n",
		r.workload, r.seed, int(r.seconds/time.Second), r.trace, r.digest)
	fmt.Printf("# setup runs (s): %v\n", r.setupDurs)
	for _, n := range r.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, c := range r.checks {
		fmt.Printf("# CHECK FAILED: %s\n", c)
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{
		Correct:   r.failed == 0 && len(r.checks) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v := vals[d.name]
		fmt.Printf("%-34s %16s %s\n", d.name, strconv.FormatFloat(v, 'g', 8, 64), d.unit)
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// runtimeSample is the Go runtime state a timed pass is measured
// against.
type runtimeSample struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return runtimeSample{
		mallocs: ms[0].Value.Uint64(), allocBytes: ms[1].Value.Uint64(),
		gcCPU: ms[2].Value.Float64(), totalCPU: ms[3].Value.Float64(),
	}
}

// rssSampler records the process's resident set while a timed pass
// runs, sampling /proc/self/statm.
type rssSampler struct {
	start time.Time
	stop  chan struct{}
	done  chan []rssPoint
}

type rssPoint struct{ at, bytes int64 }

func startRSS() *rssSampler {
	s := &rssSampler{start: time.Now(), stop: make(chan struct{}), done: make(chan []rssPoint, 1)}
	go func() {
		var pts []rssPoint
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			pts = append(pts, rssPoint{int64(time.Since(s.start)), rssBytes()})
			select {
			case <-s.stop:
				s.done <- append(pts, rssPoint{int64(time.Since(s.start)), rssBytes()})
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// end stops the sampler and returns its samples.
func (s *rssSampler) end() []rssPoint {
	close(s.stop)
	return <-s.done
}

// rssWindows is how many equal time windows peakMB cuts a pass into.
const rssWindows = 5

// peakMB is the median, over the pass's windows, of each window's
// highest resident set, in MB: the resident set saws up and down with
// every collection, and the top of one tooth is a poor repeatable
// figure.
func peakMB(pts []rssPoint, wall time.Duration) float64 {
	peaks := make([]float64, rssWindows)
	w := int64(wall) / rssWindows
	if w <= 0 {
		w = 1
	}
	for _, p := range pts {
		i := int(p.at / w)
		if i >= rssWindows {
			i = rssWindows - 1
		}
		if mb := float64(p.bytes) / (1 << 20); mb > peaks[i] {
			peaks[i] = mb
		}
	}
	return quantile(peaks, 0.5)
}

func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// leakCheck forces collection and records what stays mapped and live:
// at the seed, mapped documents are never unmapped (their Mapped handle
// and document keep each other reachable), so cold-query shows growth
// here that eviction does not return.
func (r *runner) leakCheck() {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mapped := float64(store.MappedBytes()) / (1 << 20)
	live := float64(ms.HeapAlloc) / (1 << 20)
	r.layer["store.mapped_mb"] = mapped
	r.layer["runtime.live_heap_mb"] = live
	r.note("after run + forced GC: store.mapped_mb=%.1f live_heap_mb=%.1f", mapped, live)
}

// writeTrace stores the traced pass's spans.
func (r *runner) writeTrace(rec *recorder) {
	if err := os.MkdirAll(r.traceDir, 0o755); err != nil {
		r.note("trace not written: %v", err)
		return
	}
	path := filepath.Join(r.traceDir, fmt.Sprintf("%s-seed%d.tsv", r.workload, r.seed))
	header := fmt.Sprintf("workload=%s seed=%d ops_digest=%s", r.workload, r.seed, r.digest)
	if err := rec.write(path, header); err != nil {
		r.note("trace not written: %v", err)
		return
	}
	r.note("spans written to %s", path)
}
