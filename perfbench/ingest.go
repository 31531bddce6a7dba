package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/sacx"
	"repro/internal/store"
)

const (
	ingestPool   = 16 // distinct generated documents, two of each shape
	ingestSlots  = 64 // output files; op i saves to slot i mod ingestSlots
	ingestSeqLen = 1 << 12
	ingestTraced = 32 // documents the traced pass replays
	// One worker ingests at a time. With two workers on the reference
	// host's 2 CPUs the workers and the collector contend: the p90 sat
	// 25% above the median, and in a noisy stretch of the shared host
	// ten seeds' p90 spread 0.27. With one the collector has a CPU of
	// its own and the p90 sits about 13% above the median.
	ingestWorkers = 1
)

// ingestResult is what an ingest pass measured.
type ingestResult struct {
	ss       samples // documents ingested; Kind is the shape
	docs     int
	failed   int
	inBytes  int64
	written  map[int]int64 // pool doc -> bytes its save wrote
	lastSlot map[int]int   // slot -> pool doc, of the slot's latest save
	times    []ingestTimes
	io       ioTotals
}

// runIngest: a seeded stream of generated distributed documents goes
// through sacx.Build and store.SaveFS into a fresh directory, with
// ingestWorkers closed-loop workers. Catalog, xpath and server stay idle.
func runIngest(r *runner) error {
	var pool []*docInput
	var outDir string
	err := r.setup(func(rep int) error {
		pool = pool[:0]
		for i := 0; i < ingestPool; i++ {
			in, _, err := genDoc(r.seed, i, i%len(shapes))
			if err != nil {
				return err
			}
			pool = append(pool, in)
		}
		outDir = filepath.Join(r.dir, fmt.Sprintf("ingest-%d", rep))
		return os.MkdirAll(outDir, 0o755)
	})
	if err != nil {
		return err
	}
	rng := subRand(r.seed, 1)
	seq := make([]int, 0, ingestSeqLen)
	perm := make([]int, ingestPool)
	for i := range perm {
		perm[i] = i
	}
	for len(seq) < ingestSeqLen {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		seq = append(seq, perm...)
	}
	r.digest = digestOf("ingest", seq, len(pool))

	var res ingestResult
	st := measure(nil, func() pass {
		res = ingestPass(pool, seq, outDir, newLoop(r.seconds, 0), nil)
		return pass{ss: res.ss, ops: res.docs + res.failed, failed: res.failed}
	})
	r.attempted += st.ops
	r.failed += res.failed
	secs := st.wall.Seconds()
	// The shapes' build and save costs lie within about 15% of each
	// other, so a quantile over all documents sits on no border between
	// shapes, and it has eight times the samples of a per-shape one.
	r.e2e["ops_per_s"] = st.perSecond()
	r.e2e["op_p50_ms"] = quantile(st.ss.durs(), 0.5) / 1e6
	r.e2e["op_p90_ms"] = quantile(st.ss.durs(), 0.9) / 1e6
	r.e2e["peak_rss_mb"] = st.peakMB
	r.layer["e2e.ingest_mb_per_s"] = float64(res.inBytes) / secs / 1e6
	r.layer["e2e.ingest_p50_ms"] = r.e2e["op_p50_ms"]
	var disk, content int64
	for p, n := range res.written {
		disk += n
		content += int64(pool[p].content)
	}
	if content > 0 {
		r.layer["e2e.disk_bytes_per_content_byte"] = float64(disk) / float64(content)
	}
	r.runtimeMetrics(st, res.docs)
	r.note("ingest: %d docs in %.2fs, %d failed, %.1f MB input", res.docs, secs, res.failed, float64(res.inBytes)/1e6)
	byShape := res.ss.byKind(len(shapes), nil)
	for i, sh := range shapes {
		r.note("  %-12s n=%-5d p50=%7.2fms p90=%7.2fms", sh, len(byShape[i]),
			quantile(byShape[i], 0.5)/1e6, quantile(byShape[i], 0.9)/1e6)
	}
	paths := r.validateIngest(pool, outDir, res.lastSlot)

	if r.trace {
		trDir := filepath.Join(r.dir, "ingest-traced")
		if err := os.MkdirAll(trDir, 0o755); err != nil {
			return err
		}
		rec := newRecorder()
		tr := ingestPass(pool, seq, trDir, newLoop(tracedDeadline, ingestTraced), rec)
		r.attempted += tr.docs + tr.failed
		r.failed += tr.failed
		if tr.docs < ingestTraced {
			r.failCheck("traced ingest finished %d of %d documents", tr.docs, ingestTraced)
		}
		ingestMetrics(r, tr.times, tr.io)
		if u := quantile(res.ss.durs(), 0.5); u > 0 {
			r.layer["trace.overhead_pct"] = (quantile(tr.ss.durs(), 0.5) - u) / u * 100
		}
		r.writeTrace(rec)
	}
	docLayer(r, pool)
	if err := openLayer(r, paths); err != nil {
		return err
	}
	r.leakCheck()
	return nil
}

// ingestPass runs ingestWorkers workers over seq until lp stops it.
// Traced (rec set), each worker's FS times its operations and the pass
// records a span per document, per sacx.Build, per sacx.NewStream and
// per save.
func ingestPass(pool []*docInput, seq []int, dir string, lp *loop, rec *recorder) ingestResult {
	traced := rec != nil
	out := ingestResult{written: make(map[int]int64), lastSlot: make(map[int]int)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < ingestWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fsys := newCountingFS(ioIngest, traced, rec)
			var spans []span
			for {
				i, ok := lp.take()
				if !ok {
					break
				}
				p := seq[i%int64(len(seq))]
				in := pool[p]
				slot := int(i % ingestSlots)
				var root uint64
				if traced {
					root = rec.newID()
					fsys.parent.Store(root)
				}
				before := fsys.totals(ioIngest).WriteBytes
				t0 := time.Now()
				g, t, err := ingest(fsys, filepath.Join(dir, fmt.Sprintf("s%02d.gdag", slot)), in)
				end := time.Now()
				d := end.Sub(t0)
				if err == nil && !sameCounts(hierCounts(g), in.perHier) {
					err = fmt.Errorf("ingest %s: element counts differ from the reference build", in.id)
				}
				if traced && err == nil {
					t1 := time.Now()
					_, err = sacx.NewStream(in.sources, sacx.Options{})
					t.scan = time.Since(t1)
					spans = append(spans,
						span{ID: root, Name: "ingest.doc", Start: rec.offset(t0), Dur: int64(d), N: int64(in.inBytes)},
						span{ID: rec.newID(), Parent: root, Name: "sacx.build", Start: rec.offset(t0), Dur: int64(t.build)},
						span{ID: rec.newID(), Parent: root, Name: "store.save", Start: rec.offset(t0.Add(t.build)), Dur: int64(t.save)},
						span{ID: rec.newID(), Parent: root, Name: "sacx.scan", Start: rec.offset(t1), Dur: int64(t.scan)})
				}
				mu.Lock()
				if err != nil {
					out.failed++
					fmt.Fprintln(os.Stderr, "perfbench:", err)
				} else {
					out.docs++
					out.inBytes += int64(in.inBytes)
					out.ss = append(out.ss, sample{Kind: in.shape, Dur: float64(d)})
					out.written[p] = fsys.totals(ioIngest).WriteBytes - before
					out.lastSlot[slot] = p
					out.times = append(out.times, t)
				}
				mu.Unlock()
			}
			if traced {
				rec.addAll(spans)
			}
			mu.Lock()
			out.io = out.io.add(fsys.totals(ioIngest))
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// validateIngest reopens every saved file with store.OpenMappedFile and
// Validate, and checks its element counts per hierarchy against the
// reference build of the document saved there last. It returns the
// paths it checked.
func (r *runner) validateIngest(pool []*docInput, dir string, lastSlot map[int]int) []string {
	fsys := newCountingFS(ioRead, false, nil)
	var paths []string
	for slot, p := range lastSlot {
		path := filepath.Join(dir, fmt.Sprintf("s%02d.gdag", slot))
		paths = append(paths, path)
		m, err := store.OpenMappedFile(fsys, path)
		if err != nil {
			r.failCheck("reopen %s: %v", path, err)
			continue
		}
		if err := m.Validate(); err != nil {
			r.failCheck("validate %s: %v", path, err)
			continue
		}
		g, err := m.Document()
		if err != nil {
			r.failCheck("document %s: %v", path, err)
			continue
		}
		if !sameCounts(hierCounts(g), pool[p].perHier) {
			r.failCheck("%s: element counts differ from the reference build of %s", path, pool[p].id)
		}
	}
	r.note("ingest validation: %d files reopened and validated", len(paths))
	return paths
}
