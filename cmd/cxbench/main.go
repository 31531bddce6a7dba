// Command cxbench regenerates the quantitative experiments of the
// reproduction: it generates synthetic multihierarchical manuscripts,
// runs each experiment's workload, and prints one table per experiment.
// With -benchjson it also writes the SACX ingest rows to a JSON file
// (conventionally BENCH_sacx.json) so the performance trajectory can be
// tracked across PRs; see PERFORMANCE.md.
//
// Usage:
//
//	cxbench                 # run all experiments at quick sizes
//	cxbench -exp E4         # one experiment
//	cxbench -full           # larger sweeps (slower)
//
// Experiments:
//
//	E3  SACX parsing throughput vs size, hierarchy count, overlap density
//	E4  overlap queries: Extended XPath on GODDAG vs fragment-join and
//	    milestone-pairing over single-document encodings
//	E5  axis micro-benchmarks (child/descendant/ancestor/overlapping)
//	E6  prevalidation (potential validity) cost and veto behaviour
//	E7  representation conversion cost and size overhead
//	A1  ablation: SACX k-way heap merge vs linear rescan
//	A2  ablation: overlapping axis via interval arithmetic vs graph walk
//	SERVE  cxserve serving layer: warm-cache query latency (p50) through
//	       the HTTP handler vs direct Eval, and cold catalog loads per
//	       source form (tracked in BENCH_serve.json)
//	EDIT   per-edit index maintenance: incremental in-place repair vs the
//	       forced invalidate-and-rebuild path it replaced, the cost of
//	       the first query after an edit, and catalog commit latency
//	       (op batches, undo/redo) with the write-ahead log on and the
//	       undo history full (tracked in BENCH_edit.json)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/document"
	"repro/internal/drivers"
	"repro/internal/dtd"
	"repro/internal/editor"
	"repro/internal/faultfs"
	"repro/internal/goddag"
	"repro/internal/sacx"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/validate"
	"repro/internal/xpath"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment ids, comma-separated: E3,E4,E5,E6,E7,A1,A2 or all")
		full     = flag.Bool("full", false, "run the larger sweeps")
		jsonPath = flag.String("benchjson", "", "write measured rows (E3/A1 ingest, E4/E5 query) to this JSON file, e.g. BENCH_sacx.json or BENCH_query.json")
		label    = flag.String("benchlabel", "dev", "snapshot label recorded with -benchjson (e.g. pr2); an existing snapshot with the same label is replaced, others are kept")
	)
	flag.Parse()

	b := &bench{full: *full}
	run := map[string]func(){
		"E3": b.e3, "E4": b.e4, "E5": b.e5, "E6": b.e6, "E7": b.e7,
		"A1": b.a1, "A2": b.a2, "SERVE": b.serve, "serve": b.serve,
		"EDIT": b.edit, "edit": b.edit,
	}
	ids := []string{"E3", "E4", "E5", "E6", "E7", "A1", "A2", "SERVE", "EDIT"}
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		f, ok := run[strings.TrimSpace(id)]
		if !ok {
			fmt.Fprintf(os.Stderr, "cxbench: unknown experiment %q\n", id)
			os.Exit(1)
		}
		f()
	}
	if *jsonPath != "" {
		if err := b.writeJSON(*jsonPath, *label); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "cxbench: wrote %d rows to %s as snapshot %q\n", len(b.rows), *jsonPath, *label)
	}
}

type bench struct {
	full bool
	rows []benchRow
}

// benchRow is one measured configuration of the SACX ingest path (E3/A1,
// tracked in BENCH_sacx.json) or the query path (E4/E5, tracked in
// BENCH_query.json), emitted with -benchjson so successive PRs can track
// the performance trajectory (see PERFORMANCE.md).
type benchRow struct {
	Experiment  string  `json:"experiment"` // "E3"/"A1" (ingest) or "E4"/"E5" (query)
	Words       int     `json:"words"`
	Hierarchies int     `json:"hierarchies"`
	Density     float64 `json:"density,omitempty"`
	Strategy    string  `json:"strategy,omitempty"` // A1: "heap" or "rescan"
	Query       string  `json:"query,omitempty"`    // E4/E5: the measured query
	InputBytes  int     `json:"input_bytes,omitempty"`
	NsPerOp     int64   `json:"ns_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	Elements    int     `json:"elements,omitempty"`
	Results     int     `json:"results,omitempty"`       // E4/E5: result/answer count
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"` // SERVE sustained rows: heap objects per request
}

// benchSnapshot is one labelled measurement run; BENCH_sacx.json holds
// one snapshot per PR so the trajectory is tracked in-repo.
type benchSnapshot struct {
	Label     string     `json:"label"`
	GoVersion string     `json:"go_version"`
	Rows      []benchRow `json:"rows"`
}

type benchFile struct {
	Snapshots []benchSnapshot `json:"snapshots"`
}

func (b *bench) writeJSON(path, label string) error {
	if len(b.rows) == 0 {
		return fmt.Errorf("-benchjson requires an experiment that produces rows (-exp E3, E4, E5, A1, or all)")
	}
	var file benchFile
	if old, err := os.ReadFile(path); err == nil {
		// Tolerate a corrupt or legacy-format file by starting fresh —
		// discarding anything a failed Unmarshal partially decoded — but
		// say so: the file carries the committed per-PR history, and
		// silently truncating it would lose the trajectory.
		if err := json.Unmarshal(old, &file); err != nil || len(file.Snapshots) == 0 {
			fmt.Fprintf(os.Stderr, "cxbench: %s is not a snapshot file (%v); starting a fresh history\n", path, err)
			file = benchFile{}
		}
	}
	snap := benchSnapshot{Label: label, GoVersion: runtime.Version(), Rows: b.rows}
	replaced := false
	for i := range file.Snapshots {
		if file.Snapshots[i].Label == label {
			file.Snapshots[i] = snap
			replaced = true
			break
		}
	}
	if !replaced {
		file.Snapshots = append(file.Snapshots, snap)
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// measure runs f repeatedly until enough wall time accumulates and
// returns the per-iteration duration.
func measure(f func()) time.Duration {
	f() // warm up
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		elapsed := time.Since(start)
		if elapsed > 100*time.Millisecond || n >= 1<<20 {
			return elapsed / time.Duration(n)
		}
		n *= 2
	}
}

func header(id, title string) {
	fmt.Printf("\n== %s: %s ==\n", id, title)
}

func (b *bench) sizes() []int {
	if b.full {
		return []int{1000, 10000, 50000}
	}
	return []int{500, 2000, 8000}
}

// e3 — SACX parsing throughput (Figure 3 / §3 claim: one-pass parsing of
// distributed documents).
func (b *bench) e3() {
	header("E3", "SACX parse of distributed documents into GODDAG")
	fmt.Printf("%8s %4s %8s %10s %10s %10s %9s\n", "words", "h", "density", "input_KB", "ms/parse", "MB/s", "elements")
	for _, words := range b.sizes() {
		for _, h := range []int{1, 2, 4, 8} {
			for _, d := range []float64{0.1, 0.5, 0.9} {
				cfg := corpus.DefaultConfig(words)
				cfg.Hierarchies = h
				cfg.OverlapDensity = d
				srcs, err := corpus.GenerateSources(cfg)
				if err != nil {
					fatal(err)
				}
				total := 0
				for _, s := range srcs {
					total += len(s.Data)
				}
				var doc *goddag.Document
				per := measure(func() {
					doc, err = sacx.Build(srcs)
					if err != nil {
						fatal(err)
					}
				})
				mbps := float64(total) / per.Seconds() / (1 << 20)
				fmt.Printf("%8d %4d %8.1f %10.1f %10.3f %10.1f %9d\n",
					words, h, d, float64(total)/1024, float64(per.Microseconds())/1000, mbps, doc.Stats().Elements)
				b.rows = append(b.rows, benchRow{
					Experiment: "E3", Words: words, Hierarchies: h, Density: d,
					InputBytes: total, NsPerOp: per.Nanoseconds(), MBPerS: mbps,
					Elements: doc.Stats().Elements,
				})
			}
		}
	}
}

// e4 — overlap queries: GODDAG Extended XPath vs the query plans forced
// by single-document encodings (§4 claim: XPath/XQuery are inefficient
// for overlap queries; Extended XPath expresses them directly).
func (b *bench) e4() {
	header("E4", "overlap query: //dmg/overlapping::w — GODDAG vs baselines")
	fmt.Printf("%8s %4s %8s %10s %14s %14s %9s %9s\n",
		"words", "h", "density", "goddag_us", "fragjoin_us", "milestone_us", "answers", "speedup")
	const query = "//dmg/overlapping::w"
	q := xpath.MustCompile(query)
	for _, words := range b.sizes() {
		for _, h := range []int{4, 8} {
			for _, d := range []float64{0.1, 0.5, 0.9} {
				cfg := corpus.DefaultConfig(words)
				cfg.Hierarchies = h
				cfg.OverlapDensity = d
				doc, err := corpus.Generate(cfg)
				if err != nil {
					fatal(err)
				}
				frag, err := drivers.EncodeFragmentation(doc, drivers.EncodeOptions{Dominant: "physical"})
				if err != nil {
					fatal(err)
				}
				ms, err := drivers.EncodeMilestones(doc, drivers.EncodeOptions{Dominant: "physical"})
				if err != nil {
					fatal(err)
				}
				fragDOM, err := baseline.ParseDOM(frag)
				if err != nil {
					fatal(err)
				}
				msDOM, err := baseline.ParseDOM(ms)
				if err != nil {
					fatal(err)
				}

				var answers int
				tg := measure(func() {
					v, err := q.Eval(doc)
					if err != nil {
						fatal(err)
					}
					answers = len(v.Nodes())
				})
				tf := measure(func() {
					baseline.OverlappingFragmentJoin(fragDOM, "dmg", "w")
				})
				tm := measure(func() {
					baseline.OverlappingMilestonePair(msDOM, "dmg", "w")
				})
				speedup := float64(tf) / float64(tg)
				fmt.Printf("%8d %4d %8.1f %10.1f %14.1f %14.1f %9d %8.1fx\n",
					words, h, d,
					float64(tg.Nanoseconds())/1000,
					float64(tf.Nanoseconds())/1000,
					float64(tm.Nanoseconds())/1000,
					answers, speedup)
				b.rows = append(b.rows, benchRow{
					Experiment: "E4", Words: words, Hierarchies: h, Density: d,
					Query: query, NsPerOp: tg.Nanoseconds(), Results: answers,
					Elements: doc.Stats().Elements,
				})
			}
		}
	}
	fmt.Println("note: baseline times exclude DOM parsing; they re-derive offsets per query.")
}

// e5 — axis micro-benchmarks (§4 claim: efficient implementation of the
// Extended XPath).
func (b *bench) e5() {
	header("E5", "Extended XPath axis micro-benchmarks")
	fmt.Printf("%8s %4s %26s %12s %9s\n", "words", "h", "query", "us/query", "results")
	queries := []string{
		"count(/page)",
		"count(//line)",
		"count(//w)",
		"count(//s/w)",
		"count(//s/descendant::w)",
		"count(//w[7]/covering::*)",
		"count(//dmg/overlapping::*)",
		"count(//dmg/overlapping::w)",
		"count(//res/following::w)",
		"count(//res/preceding::w)",
		"count(//line/covered::w)",
		"count(//w/ancestor::*)",
		"count(//w | //line)",
	}
	for _, words := range b.sizes() {
		for _, h := range []int{4, 8} {
			cfg := corpus.DefaultConfig(words)
			cfg.Hierarchies = h
			doc, err := corpus.Generate(cfg)
			if err != nil {
				fatal(err)
			}
			for _, qs := range queries {
				q := xpath.MustCompile(qs)
				var res float64
				per := measure(func() {
					v, err := q.Eval(doc)
					if err != nil {
						fatal(err)
					}
					res = v.Number()
				})
				fmt.Printf("%8d %4d %26s %12.1f %9.0f\n", words, h, shortQuery(qs), float64(per.Nanoseconds())/1000, res)
				b.rows = append(b.rows, benchRow{
					Experiment: "E5", Words: words, Hierarchies: h,
					Query: qs, NsPerOp: per.Nanoseconds(), Results: int(res),
				})
			}
		}
	}
}

func shortQuery(q string) string {
	q = strings.TrimPrefix(q, "count(")
	return strings.TrimSuffix(q, ")")
}

// e6 — prevalidation cost and veto behaviour (§4 claim: xTagger detects
// encodings that cannot be extended to valid XML).
func (b *bench) e6() {
	header("E6", "prevalidation (potential validity) of markup insertions")
	wordsDTD := dtd.MustParse("words", `
<!ELEMENT r (#PCDATA|s|w)*>
<!ELEMENT s (#PCDATA|w)*>
<!ELEMENT w (#PCDATA)>
`)
	fmt.Printf("%8s %12s %10s %10s\n", "words", "us/check", "accepted", "vetoed")
	for _, words := range b.sizes() {
		doc, err := corpus.Generate(corpus.DefaultConfig(words))
		if err != nil {
			fatal(err)
		}
		h := doc.Hierarchy("words")
		rng := rand.New(rand.NewSource(7))
		n := doc.Content().Len()
		spans := make([]document.Span, 200)
		for i := range spans {
			lo := rng.Intn(n - 2)
			spans[i] = document.NewSpan(lo, lo+1+rng.Intn(min(20, n-lo-1)))
		}
		// Veto statistics over the fixed span set, counted once.
		accepted, vetoed := 0, 0
		for _, sp := range spans {
			if err := validate.CheckInsertion(doc, h, wordsDTD, "w", sp); err == nil {
				accepted++
			} else {
				vetoed++
			}
		}
		i := 0
		per := measure(func() {
			_ = validate.CheckInsertion(doc, h, wordsDTD, "w", spans[i%len(spans)])
			i++
		})
		fmt.Printf("%8d %12.2f %10d %10d\n", words, float64(per.Nanoseconds())/1000, accepted, vetoed)
	}
	fmt.Println("note: vetoes are random spans nesting inside existing <w> ((#PCDATA) content) or overlapping them.")
}

// e7 — representation conversion cost and size overhead (§4 "Document
// manipulation": import/export across representations, filtering).
func (b *bench) e7() {
	header("E7", "representation encode/decode and size overhead")
	fmt.Printf("%8s %15s %10s %10s %10s %10s\n", "words", "format", "bytes", "overhead", "enc_ms", "dec_ms")
	for _, words := range b.sizes() {
		doc, err := corpus.Generate(corpus.DefaultConfig(words))
		if err != nil {
			fatal(err)
		}
		contentLen := len(doc.Content().String())
		type codec struct {
			name string
			enc  func() ([]byte, error)
			dec  func([]byte) error
		}
		codecs := []codec{
			{"distributed", func() ([]byte, error) {
				m, err := drivers.EncodeDistributed(doc, drivers.EncodeOptions{})
				if err != nil {
					return nil, err
				}
				var all []byte
				for _, v := range m {
					all = append(all, v...)
				}
				return all, nil
			}, func(data []byte) error {
				m, err := drivers.EncodeDistributed(doc, drivers.EncodeOptions{})
				if err != nil {
					return err
				}
				_, err = drivers.DecodeDistributed(m)
				return err
			}},
			{"milestones", func() ([]byte, error) {
				return drivers.EncodeMilestones(doc, drivers.EncodeOptions{})
			}, func(data []byte) error {
				_, err := drivers.DecodeMilestones(data)
				return err
			}},
			{"fragmentation", func() ([]byte, error) {
				return drivers.EncodeFragmentation(doc, drivers.EncodeOptions{})
			}, func(data []byte) error {
				_, err := drivers.DecodeFragmentation(data)
				return err
			}},
			{"standoff", func() ([]byte, error) {
				return drivers.EncodeStandoff(doc, drivers.EncodeOptions{})
			}, func(data []byte) error {
				_, err := drivers.DecodeStandoff(data)
				return err
			}},
		}
		for _, c := range codecs {
			data, err := c.enc()
			if err != nil {
				fatal(err)
			}
			tEnc := measure(func() {
				if _, err := c.enc(); err != nil {
					fatal(err)
				}
			})
			tDec := measure(func() {
				if err := c.dec(data); err != nil {
					fatal(err)
				}
			})
			fmt.Printf("%8d %15s %10d %9.2fx %10.3f %10.3f\n",
				words, c.name, len(data), float64(len(data))/float64(contentLen),
				float64(tEnc.Microseconds())/1000, float64(tDec.Microseconds())/1000)
		}
	}
}

// a1 — ablation D2: SACX heap merge vs linear rescan of stream heads.
func (b *bench) a1() {
	header("A1", "ablation: SACX k-way heap merge vs linear rescan")
	fmt.Printf("%8s %4s %14s %14s %9s\n", "words", "h", "heap_ms", "rescan_ms", "ratio")
	words := b.sizes()[1]
	for _, h := range []int{2, 4, 8, 16} {
		cfg := corpus.DefaultConfig(words)
		cfg.Hierarchies = h
		srcs, err := corpus.GenerateSources(cfg)
		if err != nil {
			fatal(err)
		}
		drain := func(strategy sacx.MergeStrategy) {
			st, err := sacx.NewStream(srcs, sacx.Options{Strategy: strategy})
			if err != nil {
				fatal(err)
			}
			if _, err := st.Events(); err != nil {
				fatal(err)
			}
		}
		tHeap := measure(func() { drain(sacx.MergeHeap) })
		tScan := measure(func() { drain(sacx.MergeRescan) })
		fmt.Printf("%8d %4d %14.3f %14.3f %8.2fx\n", words, h,
			float64(tHeap.Microseconds())/1000, float64(tScan.Microseconds())/1000,
			float64(tScan)/float64(tHeap))
		b.rows = append(b.rows,
			benchRow{Experiment: "A1", Words: words, Hierarchies: h, Strategy: "heap", NsPerOp: tHeap.Nanoseconds()},
			benchRow{Experiment: "A1", Words: words, Hierarchies: h, Strategy: "rescan", NsPerOp: tScan.Nanoseconds()})
	}
}

// a2 — ablation D3: overlapping axis via interval arithmetic vs GODDAG
// graph walk through shared leaves. The axis is evaluated in isolation
// (context node fixed to each <dmg>), so the numbers measure only the
// axis implementations, not the //dmg scan both share.
func (b *bench) a2() {
	header("A2", "ablation: overlapping axis, interval arithmetic vs graph walk")
	fmt.Printf("%8s %8s %6s %14s %14s %9s\n", "words", "density", "dmgs", "interval_us", "walk_us", "ratio")
	q := xpath.MustCompile("overlapping::w")
	words := b.sizes()[1]
	for _, d := range []float64{0.1, 0.5, 0.9} {
		cfg := corpus.DefaultConfig(words)
		cfg.OverlapDensity = d
		doc, err := corpus.Generate(cfg)
		if err != nil {
			fatal(err)
		}
		dmgs := doc.Hierarchy("damage").Elements()
		evalAll := func(opts xpath.Options) {
			for _, dmg := range dmgs {
				if _, err := q.EvalFromWithOptions(doc, dmg, opts); err != nil {
					fatal(err)
				}
			}
		}
		tInt := measure(func() { evalAll(xpath.Options{}) })
		tWalk := measure(func() { evalAll(xpath.Options{OverlapByWalk: true}) })
		fmt.Printf("%8d %8.1f %6d %14.1f %14.1f %8.2fx\n", words, d, len(dmgs),
			float64(tInt.Nanoseconds())/1000, float64(tWalk.Nanoseconds())/1000,
			float64(tWalk)/float64(tInt))
	}
}

// serve — the cxserve serving layer: warm-cache query latency through
// the full HTTP handler stack (request decode, catalog hit, compiled
// query cache, Eval, JSON/text encode) against direct xpath Eval on the
// same document, plus cold catalog loads per source form. Latency rows
// report the p50 over repeated single requests; the acceptance bar is
// that warm //w-class handler queries cost no more than direct Eval plus
// the response encoding.
func (b *bench) serve() {
	header("SERVE", "cxserve serving layer: warm query latency and cold loads")
	words := b.sizes()[1]
	cfg := corpus.DefaultConfig(words)
	doc, err := corpus.Generate(cfg)
	if err != nil {
		fatal(err)
	}

	dir, err := os.MkdirTemp("", "cxbench-serve")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	f, err := os.Create(filepath.Join(dir, "ms.gdag"))
	if err != nil {
		fatal(err)
	}
	if err := store.Encode(f, doc); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	so, err := drivers.EncodeStandoff(doc, drivers.EncodeOptions{})
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "standoff.xml"), so, 0o644); err != nil {
		fatal(err)
	}

	cat, err := catalog.Open(dir, catalog.Options{})
	if err != nil {
		fatal(err)
	}
	srv := server.New(cat, server.Config{})
	h := srv.Handler()

	// Cold loads: parse + index pre-warm + footprint accounting, per
	// source form. Evict between iterations so every Get is cold.
	fmt.Printf("%8s %12s %14s\n", "words", "source", "cold_ms")
	for _, id := range []string{"ms", "standoff"} {
		per := measure(func() {
			if _, err := cat.Get(id); err != nil {
				fatal(err)
			}
			cat.Evict(id)
		})
		fmt.Printf("%8d %12s %14.3f\n", words, id, float64(per.Microseconds())/1000)
		b.rows = append(b.rows, benchRow{
			Experiment: "SERVE", Words: words, Hierarchies: cfg.Hierarchies,
			Strategy: "cold-" + id, NsPerOp: per.Nanoseconds(),
		})
	}

	// Warm-cache latency: p50 per query through the handler (JSON and
	// text responses) vs direct Eval of the same compiled query.
	if _, err := cat.Get("ms"); err != nil {
		fatal(err)
	}
	g, err := cat.Get("ms")
	if err != nil {
		fatal(err)
	}
	queries := []string{
		"//w",
		"count(//w)",
		"//dmg/overlapping::w",
		"//line/covered::w",
	}
	fmt.Printf("%8s %24s %14s %14s %14s %9s\n",
		"words", "query", "handler_p50_us", "text_p50_us", "direct_p50_us", "results")
	for _, qs := range queries {
		cq := xpath.MustCompile(qs)
		var results int
		direct := measureP50(func() {
			v, err := cq.Eval(g.GODDAG())
			if err != nil {
				fatal(err)
			}
			if v.IsNodeSet() {
				results = len(v.Nodes())
			} else {
				results = 1
			}
		})
		jsonBody := fmt.Sprintf(`{"doc":"ms","query":%q}`, qs)
		textBody := fmt.Sprintf(`{"doc":"ms","query":%q,"format":"text"}`, qs)
		handler := measureP50(func() { serveOnce(h, jsonBody) })
		text := measureP50(func() { serveOnce(h, textBody) })
		fmt.Printf("%8d %24s %14.1f %14.1f %14.1f %9d\n", words, qs,
			float64(handler.Nanoseconds())/1000, float64(text.Nanoseconds())/1000,
			float64(direct.Nanoseconds())/1000, results)
		b.rows = append(b.rows,
			benchRow{Experiment: "SERVE", Words: words, Hierarchies: cfg.Hierarchies,
				Query: qs, Strategy: "handler-json", NsPerOp: handler.Nanoseconds(), Results: results},
			benchRow{Experiment: "SERVE", Words: words, Hierarchies: cfg.Hierarchies,
				Query: qs, Strategy: "handler-text", NsPerOp: text.Nanoseconds(), Results: results},
			benchRow{Experiment: "SERVE", Words: words, Hierarchies: cfg.Hierarchies,
				Query: qs, Strategy: "direct", NsPerOp: direct.Nanoseconds(), Results: results})
	}
	fmt.Println("note: handler rows include request decode + response encode; direct rows are bare Eval on the warm GODDAG.")

	// Sustained load: several concurrent clients hammer the handler for a
	// fixed window. Reported ns/op is aggregate throughput (wall time over
	// total completed requests); allocs/op is the process-wide Mallocs
	// delta per request — the streaming path's O(1)-allocations claim
	// measured under load rather than in isolation.
	clients := runtime.GOMAXPROCS(0)
	if clients > 8 {
		clients = 8
	}
	fmt.Printf("%8s %24s %9s %14s %11s\n", "words", "query", "clients", "ns_per_op", "allocs_op")
	for _, qs := range []string{"//w", "count(//w)"} {
		body := fmt.Sprintf(`{"doc":"ms","query":%q}`, qs)
		serveOnce(h, body) // warm caches and pools before counting
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		var (
			wg   sync.WaitGroup
			stop = make(chan struct{})
			ops  atomic.Int64
		)
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n := int64(0)
				for {
					select {
					case <-stop:
						ops.Add(n)
						return
					default:
					}
					serveOnce(h, body)
					n++
				}
			}()
		}
		time.Sleep(300 * time.Millisecond)
		close(stop)
		wg.Wait()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		total := ops.Load()
		nsPerOp := elapsed.Nanoseconds() / total
		allocsPerOp := float64(after.Mallocs-before.Mallocs) / float64(total)
		fmt.Printf("%8d %24s %9d %14d %11.1f\n", words, qs, clients, nsPerOp, allocsPerOp)
		b.rows = append(b.rows, benchRow{
			Experiment: "SERVE", Words: words, Hierarchies: cfg.Hierarchies,
			Query: qs, Strategy: "sustained-json", NsPerOp: nsPerOp,
			Results: int(total), AllocsPerOp: allocsPerOp,
		})
	}
	fmt.Println("note: sustained rows are aggregate throughput over a 300ms window; allocs_op counts every heap object in the process, including the test client's request/recorder objects.")

	// Cold open, v2 decode vs v3 mapped — the open-without-decode claim.
	// The v2 iteration is the pre-v3 load: open, streaming decode, index
	// warm. The v3 iteration is open + mmap + header validation + first
	// element touch deferred (Close unmaps so mappings don't pile up).
	bigWords := b.sizes()[2]
	bigDoc, err := corpus.Generate(corpus.DefaultConfig(bigWords))
	if err != nil {
		fatal(err)
	}
	v2path := filepath.Join(dir, "cold2.gdag")
	v3path := filepath.Join(dir, "cold3.gdag")
	writeGdag := func(path string, enc func(io.Writer, *goddag.Document) error) {
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := enc(f, bigDoc); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	writeGdag(v2path, store.Encode)
	writeGdag(v3path, store.EncodeV3)
	v2cold := measureP50(func() {
		f, err := os.Open(v2path)
		if err != nil {
			fatal(err)
		}
		d, err := store.Decode(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		d.Warm()
	})
	v3cold := measureP50(func() {
		_, m, err := store.OpenMappedDoc(faultfs.OS, v3path)
		if err != nil {
			fatal(err)
		}
		m.Close()
	})
	fmt.Printf("%8s %16s %14s %9s\n", "words", "strategy", "cold_open_us", "speedup")
	fmt.Printf("%8d %16s %14.1f %9s\n", bigWords, "cold-open-v2", float64(v2cold.Nanoseconds())/1000, "1.00x")
	fmt.Printf("%8d %16s %14.1f %8.0fx\n", bigWords, "cold-open-v3", float64(v3cold.Nanoseconds())/1000,
		float64(v2cold)/float64(v3cold))
	b.rows = append(b.rows,
		benchRow{Experiment: "SERVE", Words: bigWords, Hierarchies: 4,
			Strategy: "cold-open-v2", NsPerOp: v2cold.Nanoseconds()},
		benchRow{Experiment: "SERVE", Words: bigWords, Hierarchies: 4,
			Strategy: "cold-open-v3", NsPerOp: v3cold.Nanoseconds()})

	// Warm query after materialization: the lazy path must serve
	// structural queries at heap speed once touched.
	v2doc := func() *goddag.Document {
		f, err := os.Open(v2path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		d, err := store.Decode(f)
		if err != nil {
			fatal(err)
		}
		d.Warm()
		return d
	}()
	v3g, v3m, err := store.OpenMappedDoc(faultfs.OS, v3path)
	if err != nil {
		fatal(err)
	}
	defer v3m.Close()
	wq := xpath.MustCompile("//w")
	warmQ := func(d *goddag.Document) time.Duration {
		return measureP50(func() {
			if _, err := wq.Eval(d); err != nil {
				fatal(err)
			}
		})
	}
	v2warm, v3warm := warmQ(v2doc), warmQ(v3g)
	fmt.Printf("%8s %16s %14s\n", "words", "strategy", "warm_query_us")
	fmt.Printf("%8d %16s %14.1f\n", bigWords, "warm-query-v2", float64(v2warm.Nanoseconds())/1000)
	fmt.Printf("%8d %16s %14.1f\n", bigWords, "warm-query-v3", float64(v3warm.Nanoseconds())/1000)
	b.rows = append(b.rows,
		benchRow{Experiment: "SERVE", Words: bigWords, Hierarchies: 4,
			Query: "//w", Strategy: "warm-query-v2", NsPerOp: v2warm.Nanoseconds()},
		benchRow{Experiment: "SERVE", Words: bigWords, Hierarchies: 4,
			Query: "//w", Strategy: "warm-query-v3", NsPerOp: v3warm.Nanoseconds()})

	// Residency under a fixed budget: how many documents each format
	// keeps servable. The budget is sized to ~2.5 heap-resident copies;
	// mapped documents charge their content plus the bytes they have
	// touched, so the whole fleet stays resident.
	const fleet = 24
	resident := func(enc func(io.Writer, *goddag.Document) error, budget int64) (int, int64) {
		fdir, err := os.MkdirTemp("", "cxbench-fleet")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(fdir)
		for i := 0; i < fleet; i++ {
			cfg := corpus.DefaultConfig(b.sizes()[1])
			cfg.Seed = int64(i + 1)
			d, err := corpus.Generate(cfg)
			if err != nil {
				fatal(err)
			}
			f, err := os.Create(filepath.Join(fdir, fmt.Sprintf("doc%d.gdag", i)))
			if err != nil {
				fatal(err)
			}
			if err := enc(f, d); err != nil {
				fatal(err)
			}
			f.Close()
		}
		fc, err := catalog.Open(fdir, catalog.Options{Budget: budget})
		if err != nil {
			fatal(err)
		}
		for i := 0; i < fleet; i++ {
			if _, err := fc.Get(fmt.Sprintf("doc%d", i)); err != nil {
				fatal(err)
			}
		}
		s := fc.Stats()
		return s.Resident, s.Bytes
	}
	probeDoc, err := corpus.Generate(corpus.DefaultConfig(b.sizes()[1]))
	if err != nil {
		fatal(err)
	}
	probeDoc.Warm()
	budget := probeDoc.Footprint()*5/2 + 1
	v2res, v2bytes := resident(store.Encode, budget)
	v3res, v3bytes := resident(store.EncodeV3, budget)
	fmt.Printf("%8s %16s %9s %9s %14s\n", "words", "strategy", "docs", "resident", "bytes")
	fmt.Printf("%8d %16s %9d %9d %14d\n", b.sizes()[1], "resident-v2", fleet, v2res, v2bytes)
	fmt.Printf("%8d %16s %9d %9d %14d\n", b.sizes()[1], "resident-v3", fleet, v3res, v3bytes)
	fmt.Printf("note: resident rows load %d docs under a %d-byte budget (~2.5 heap copies); v3 charges its content plus the bytes it has touched.\n", fleet, budget)
	b.rows = append(b.rows,
		benchRow{Experiment: "SERVE", Words: b.sizes()[1], Hierarchies: 4,
			Strategy: "resident-v2", Results: v2res, InputBytes: int(v2bytes)},
		benchRow{Experiment: "SERVE", Words: b.sizes()[1], Hierarchies: 4,
			Strategy: "resident-v3", Results: v3res, InputBytes: int(v3bytes)})
}

// edit — per-edit index maintenance cost, the write-path experiment of
// the transactional editing PR: one "edit" is an element insertion (or
// the matching removal) into a warm, fully indexed document. With
// incremental repair (the default) the mutation patches the ordinal,
// pre-order, name, and span indexes in place; with repair disabled it
// invalidates them and the next read pays a from-scratch rebuild — the
// pre-PR behaviour, forced here via SetIncrementalRepair(false) + Warm.
// The query-after-edit rows measure the first query landing after an
// edit in both modes, the latency an interactive editor or the serving
// layer actually observes.
func (b *bench) edit() {
	header("EDIT", "per-edit index maintenance: incremental repair vs full rebuild")
	fmt.Printf("%8s %4s %9s %12s %12s %9s %15s %15s\n",
		"words", "h", "elements", "repair_us", "rebuild_us", "speedup", "query_repair_us", "query_rebuild_us")
	for _, words := range b.sizes()[1:] {
		cfg := corpus.DefaultConfig(words)
		doc, err := corpus.Generate(cfg)
		if err != nil {
			fatal(err)
		}
		doc.Warm()
		// Edit sites: spans of existing <w> elements, wrapped from a
		// dedicated hierarchy so edits never conflict; cycling through
		// them spreads the splice point over the whole document.
		ws := doc.ElementsNamed("w")
		if len(ws) == 0 {
			fatal(fmt.Errorf("edit bench: no <w> elements"))
		}
		spans := make([]document.Span, len(ws))
		for i, e := range ws {
			spans[i] = e.Span()
		}
		bh := doc.AddHierarchy("editbench")
		elements := doc.Stats().Elements
		q := xpath.MustCompile("count(//w)")

		i := 0
		editPair := func() {
			sp := spans[i%len(spans)]
			i++
			el, err := doc.InsertElement(bh, "edit", nil, sp)
			if err != nil {
				fatal(err)
			}
			doc.Warm() // repair: no-op; rebuild mode: pays the full rebuild
			if err := doc.RemoveElement(el); err != nil {
				fatal(err)
			}
			doc.Warm()
		}
		queryAfterEdit := func() {
			sp := spans[i%len(spans)]
			i++
			el, err := doc.InsertElement(bh, "edit", nil, sp)
			if err != nil {
				fatal(err)
			}
			if _, err := q.Eval(doc); err != nil {
				fatal(err)
			}
			if err := doc.RemoveElement(el); err != nil {
				fatal(err)
			}
		}

		doc.SetIncrementalRepair(true)
		doc.Warm()
		tRepair := measure(editPair) / 2 // two edits per pair
		doc.SetIncrementalRepair(false)
		tRebuild := measure(editPair) / 2

		doc.SetIncrementalRepair(true)
		doc.Warm()
		tQueryRepair := measure(queryAfterEdit)
		doc.SetIncrementalRepair(false)
		tQueryRebuild := measure(queryAfterEdit)
		doc.SetIncrementalRepair(true)

		speedup := float64(tRebuild) / float64(tRepair)
		fmt.Printf("%8d %4d %9d %12.1f %12.1f %8.1fx %15.1f %15.1f\n",
			words, cfg.Hierarchies, elements,
			float64(tRepair.Nanoseconds())/1000, float64(tRebuild.Nanoseconds())/1000, speedup,
			float64(tQueryRepair.Nanoseconds())/1000, float64(tQueryRebuild.Nanoseconds())/1000)
		b.rows = append(b.rows,
			benchRow{Experiment: "EDIT", Words: words, Hierarchies: cfg.Hierarchies,
				Strategy: "repair", NsPerOp: tRepair.Nanoseconds(), Elements: elements},
			benchRow{Experiment: "EDIT", Words: words, Hierarchies: cfg.Hierarchies,
				Strategy: "rebuild", NsPerOp: tRebuild.Nanoseconds(), Elements: elements},
			benchRow{Experiment: "EDIT", Words: words, Hierarchies: cfg.Hierarchies,
				Strategy: "query-after-edit-repair", Query: "count(//w)", NsPerOp: tQueryRepair.Nanoseconds(), Elements: elements},
			benchRow{Experiment: "EDIT", Words: words, Hierarchies: cfg.Hierarchies,
				Strategy: "query-after-edit-rebuild", Query: "count(//w)", NsPerOp: tQueryRebuild.Nanoseconds(), Elements: elements})
	}
	fmt.Println("note: an edit is one element insertion or removal on a warm document; rebuild forces the pre-repair invalidate-and-rebuild path.")
	b.editCommit(8000)
}

// editCommit measures whole commits through the catalog, the latency a
// client of POST /docs/{id}/edit, /undo and /redo waits for: a catalog
// over one words-word .gdag with the write-ahead log on, its undo
// history filled first (editor.DefaultHistoryLimit batches and then
// some). A batch marks the next word and sets an attribute on the mark,
// removing the oldest mark past eight so the document stays the same
// size; an undo/redo pair steps the history back and forth. Rows report
// the p50 and the mean per commit (the mean carries the amortized
// checkpoints).
func (b *bench) editCommit(words int) {
	cfg := corpus.DefaultConfig(words)
	g, err := corpus.Generate(cfg)
	if err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp("", "cxbench-commit")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := store.Save(filepath.Join(dir, "ms.gdag"), g); err != nil {
		fatal(err)
	}
	var spans []document.Span
	for _, el := range g.ElementsNamed("w") {
		spans = append(spans, el.Span())
	}
	// Marks go in word order, so a new mark is always the last one.
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	cat, err := catalog.Open(dir, catalog.Options{})
	if err != nil {
		fatal(err)
	}
	const keep, warm, timed, pairs = 8, editor.DefaultHistoryLimit + 16, 128, 32
	if len(spans) < warm+timed {
		fatal(fmt.Errorf("edit commit bench: %d words, need %d", len(spans), warm+timed))
	}
	marks := 0
	batch := func(i int) time.Duration {
		sp := spans[i]
		ops := []editor.Op{
			{Op: "insert-markup", Hierarchy: "commits", Tag: "mark", Start: sp.Start, End: sp.End},
			{Op: "set-attr", Hierarchy: "commits", Index: marks, Name: "n", Value: fmt.Sprint(i)},
		}
		marks++
		if marks > keep {
			ops = append(ops, editor.Op{Op: "remove-markup", Hierarchy: "commits", Index: 0})
			marks--
		}
		start := time.Now()
		if err := cat.UpdateBatch("ms", ops, nil); err != nil {
			fatal(err)
		}
		return time.Since(start)
	}
	history := func(undo bool) time.Duration {
		start := time.Now()
		err := cat.Update("ms", func(d *core.Document) error {
			if undo {
				return d.Edit().Undo()
			}
			return d.Edit().Redo()
		})
		if err != nil {
			fatal(err)
		}
		return time.Since(start)
	}
	for i := 0; i < warm; i++ {
		batch(i)
	}
	var batches, moves []time.Duration
	for i := 0; i < timed; i++ {
		batches = append(batches, batch(warm+i))
	}
	for i := 0; i < pairs; i++ {
		moves = append(moves, history(true), history(false))
	}
	stats := func(ds []time.Duration) (p50, mean time.Duration) {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		sorted := append([]time.Duration(nil), ds...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return sorted[len(sorted)/2], sum / time.Duration(len(ds))
	}
	elements := g.Stats().Elements
	fmt.Printf("\n%8s %4s %9s %18s %10s %11s\n", "words", "h", "elements", "commit", "p50_ms", "mean_ms")
	for _, r := range []struct {
		name string
		ds   []time.Duration
	}{{"commit-batch", batches}, {"commit-undo-redo", moves}} {
		p50, mean := stats(r.ds)
		fmt.Printf("%8d %4d %9d %18s %10.2f %11.2f\n", words, cfg.Hierarchies, elements, r.name,
			float64(p50.Microseconds())/1000, float64(mean.Microseconds())/1000)
		b.rows = append(b.rows,
			benchRow{Experiment: "EDIT", Words: words, Hierarchies: cfg.Hierarchies,
				Strategy: r.name, NsPerOp: p50.Nanoseconds(), Elements: elements},
			benchRow{Experiment: "EDIT", Words: words, Hierarchies: cfg.Hierarchies,
				Strategy: r.name + "-mean", NsPerOp: mean.Nanoseconds(), Elements: elements})
	}
	fmt.Printf("note: commits through catalog.UpdateBatch / catalog.Update(Undo|Redo), WAL on, history full (%d batches before timing).\n", warm)
}

func serveOnce(h http.Handler, body string) {
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		fatal(fmt.Errorf("serve bench: status %d: %s", w.Code, w.Body.String()))
	}
}

// measureP50 samples f until enough wall time accumulates and returns
// the median duration — the latency measure the serving-layer rows
// report (tail-robust, unlike the mean measure uses).
func measureP50(f func()) time.Duration {
	f() // warm up
	var samples []time.Duration
	total := time.Duration(0)
	for total < 100*time.Millisecond || len(samples) < 30 {
		start := time.Now()
		f()
		d := time.Since(start)
		samples = append(samples, d)
		total += d
		if len(samples) >= 1<<16 {
			break
		}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cxbench:", err)
	os.Exit(1)
}
