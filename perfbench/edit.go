package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/editor"
	"repro/internal/goddag"
	"repro/internal/server"
	"repro/internal/xpath"
)

const (
	editShape = 2 // h=4, density 0.5
	editHier  = "edits"
	editTag   = "seg"
	// Each batch marks one word and, once editKeep marks exist, removes
	// the oldest, so the document's size stays steady.
	editKeep = 8
	// A cycle is editCycle batches followed by an undo and a redo.
	editCycle  = 7
	editSeqLen = 4096
	// The traced pass replays a fixed number of whole cycles, so its
	// byte and sync counts repeat exactly.
	editTraced = 8 * (editCycle + 2)
	// The untimed warm-up runs whole cycles until the editor's undo
	// history is full (editor.DefaultHistoryLimit snapshots), so the
	// timed pass sees the heap a long-running session carries, not the
	// fast first seconds while the history fills.
	editWarm = 12 * (editCycle + 2)
)

type writeKind int

const (
	batchWrite writeKind = iota
	undoWrite
	redoWrite
)

// mark is one element of the edits hierarchy in the writer's model.
type mark struct {
	span document.Span
	n    string
}

// writeOp is one write of the pre-generated sequence, with the state of
// the edits hierarchy once it is acknowledged.
type writeOp struct {
	kind  writeKind
	ops   []editor.Op
	body  []byte
	after []mark // sorted by span start
}

func (w writeOp) String() string {
	return fmt.Sprintf("%d %s", w.kind, w.body)
}

// editSequence pre-generates n writes: insert-markup of a seg over a
// word's span (word spans lie on rune boundaries), set-attr on it, and
// past editKeep marks a remove-markup of the oldest; every cycle ends
// with an undo of its last batch and a redo. words are the markable
// word spans, in document order.
func editSequence(rng *rand.Rand, words []document.Span, n int) []writeOp {
	var out []writeOp
	var queue []int // marked word indices, oldest first
	attr := make(map[int]string)
	state := func() []mark {
		idx := append([]int(nil), queue...)
		sort.Ints(idx) // word order is document order
		ms := make([]mark, len(idx))
		for i, j := range idx {
			ms[i] = mark{span: words[j], n: attr[j]}
		}
		return ms
	}
	position := func(j int) int {
		p := 0
		for _, k := range queue {
			if k < j {
				p++
			}
		}
		return p
	}
	for len(out) < n {
		for b := 0; b < editCycle; b++ {
			j := rng.Intn(len(words))
			for contains(queue, j) {
				j = rng.Intn(len(words))
			}
			queue = append(queue, j)
			attr[j] = strconv.Itoa(len(out))
			ops := []editor.Op{
				{Op: "insert-markup", Hierarchy: editHier, Tag: editTag, Start: words[j].Start, End: words[j].End},
				{Op: "set-attr", Hierarchy: editHier, Index: position(j), Name: "n", Value: attr[j]},
			}
			if len(queue) > editKeep {
				ops = append(ops, editor.Op{Op: "remove-markup", Hierarchy: editHier, Index: position(queue[0])})
				queue = queue[1:]
			}
			body, _ := json.Marshal(server.EditRequest{Ops: ops})
			out = append(out, writeOp{kind: batchWrite, ops: ops, body: body, after: state()})
		}
		before := []mark(nil)
		if len(out) >= 2 {
			before = out[len(out)-2].after
		}
		out = append(out,
			writeOp{kind: undoWrite, after: before},
			writeOp{kind: redoWrite, after: out[len(out)-1].after})
	}
	return out[:n]
}

func contains(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// markableWords lists, in document order, the spans of the <w>
// elements a mark may cover. The words //w[7] selects are left out: a
// mark over one would cover it, and the read mix's //w[7]/covering::*
// must keep the answer computed at setup.
func markableWords(g *goddag.Document) ([]document.Span, error) {
	sel, err := xpath.Select(g, "//w[7]")
	if err != nil {
		return nil, err
	}
	skip := make(map[document.Span]bool, len(sel))
	for _, n := range sel {
		skip[n.Span()] = true
	}
	var out []document.Span
	for _, el := range g.Hierarchy("words").Elements() {
		if el.Name() == "w" && !skip[el.Span()] {
			out = append(out, el.Span())
		}
	}
	return out, nil
}

// writeStats is what the writer measured.
type writeStats struct {
	ss     samples // acknowledged writes; Kind is the writeKind
	acked  int
	failed int
	last   int // index of the last acknowledged write, -1 for none
}

// runEditMix: one hot document; one writer client sends op batches in a
// closed loop, with an undo and a redo closing every cycle, while the
// other clients send the read mix against the same document. The WAL is
// on, so each write is logged, applied and checkpointed.
func runEditMix(r *runner) error {
	comp, err := compileMix()
	if err != nil {
		return err
	}
	var s *served
	var seq []writeOp
	open := func(name string) (*served, []*goddag.Document, error) {
		s, refs, err := newServed(r, filepath.Join(r.dir, name), comp, []int{editShape})
		if err != nil {
			return nil, nil, err
		}
		if err := s.open(0); err != nil {
			return nil, nil, err
		}
		return s, refs, s.preload()
	}
	if err := r.setup(func(rep int) error {
		var refs []*goddag.Document
		s, refs, err = open("edit")
		if err != nil {
			return err
		}
		words, err := markableWords(refs[0])
		if err != nil {
			return err
		}
		seq = editSequence(subRand(r.seed, 4), words, editSeqLen)
		return nil
	}); err != nil {
		return err
	}
	reads := readSequence(subRand(r.seed, 5), readSeqLen, func() int { return 0 })
	r.digest = digestOf("edit-mix", seq, reads)

	// Untraced: the writer and the readers go through the handler,
	// first for the warm-up writes, then for the timed pass.
	mix := func(writes []writeOp, lp *loop) (pass, writeStats) {
		var ws writeStats
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws = handlerWrites(s, writes, lp)
			lp.stop.Store(true)
		}()
		rs := s.handlerReads(clients-1, reads, lp)
		wg.Wait()
		return rs, ws
	}
	wst, wws := mix(seq[:editWarm], newLoop(tracedDeadline, 0))
	r.attempted += wst.ops + wws.acked + wws.failed
	r.failed += wst.failed + wws.failed
	io0 := s.catFS.all()
	var ws writeStats
	st := measure(s.cat, func() pass {
		var rs pass
		rs, ws = mix(seq[editWarm:], newLoop(r.seconds, 0))
		return rs
	})
	io1 := s.catFS.all()
	if ws.last >= 0 {
		ws.last += editWarm
	} else {
		ws.last = wws.last
	}
	r.attempted += st.ops + ws.acked + ws.failed
	r.failed += st.failed + ws.failed
	r.e2e["ops_per_s"] = float64(len(ws.ss)) / st.wall.Seconds()
	r.e2e["op_p50_ms"] = quantile(ws.ss.durs(), 0.5) / 1e6
	r.e2e["op_p90_ms"] = quantile(ws.ss.durs(), 0.9) / 1e6
	r.e2e["peak_rss_mb"] = st.peakMB
	r.layer["e2e.commit_p50_ms"] = r.e2e["op_p50_ms"]
	r.layer["e2e.commit_p90_ms"] = r.e2e["op_p90_ms"]
	written := io1[ioLog].sub(io0[ioLog]).WriteBytes + io1[ioCheckpoint].sub(io0[ioCheckpoint]).WriteBytes
	if ws.acked > 0 {
		r.layer["e2e.write_kb_per_commit"] = float64(written) / float64(ws.acked) / 1024
	}
	r.readMetrics(st, false)
	r.runtimeMetrics(st, st.ops+ws.acked)
	r.note("writes: %d acknowledged, %d failed; p50=%.2fms p90=%.2fms", ws.acked, ws.failed,
		quantile(ws.ss.durs(), 0.5)/1e6, quantile(ws.ss.durs(), 0.9)/1e6)
	r.checkRestart(s, seq, ws.last)
	s.ingestLayer(r)

	if r.trace {
		ts, _, err := open("edit-traced")
		if err != nil {
			return err
		}
		rec := newRecorder()
		ts.catFS.rec = rec
		tlp := newLoop(r.seconds, 0)
		var materialized int64
		var tw tracedWrites
		tst := measure(ts.cat, func() pass {
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				tw = layeredWrites(ts, seq[:editTraced], rec)
				tlp.stop.Store(true)
			}()
			var rs pass
			rs, materialized = ts.layeredReads(clients-1, reads, tlp, comp, rec)
			wg.Wait()
			return rs
		})
		r.attempted += tst.ops + tw.acked + tw.failed
		r.failed += tst.failed + tw.failed
		spanLayers(r.layer, rec, materialized, tst.cat1.Loads-tst.cat0.Loads)
		r.compareTraced(st.ss, tst.ss)
		r.note("traced reads: %d, %d failed", tst.ops, tst.failed)
		tw.report(r)
		if u := quantile(ws.ss.durs(), 0.5); u > 0 {
			r.layer["trace.overhead_pct"] = (quantile(tw.ss.durs(), 0.5) - u) / u * 100
		}
		r.checkRestart(ts, seq, tw.last)
		r.writeTrace(rec)
	}
	if err := openLayer(r, []string{gdagPath(s.dir, s.docs[0].id)}); err != nil {
		return err
	}
	r.leakCheck()
	return nil
}

// handlerWrites is the writer client of the untraced pass. It checks
// the deadline only before a batch or an undo, so an undo is always
// followed by its redo.
func handlerWrites(s *served, seq []writeOp, lp *loop) writeStats {
	c := newHTTPClient(s.handler)
	id := s.docs[0].id
	ws := writeStats{last: -1}
	for i, w := range seq {
		if w.kind != redoWrite && (lp.stop.Load() || !time.Now().Before(lp.deadline)) {
			break
		}
		path := "/docs/" + id + "/edit"
		switch w.kind {
		case undoWrite:
			path = "/docs/" + id + "/undo"
		case redoWrite:
			path = "/docs/" + id + "/redo"
		}
		t0 := time.Now()
		code := c.do(path, w.body)
		t1 := time.Now()
		if code != http.StatusOK {
			ws.failed++
			continue
		}
		ws.acked++
		ws.last = i
		ws.ss = append(ws.ss, sample{Kind: int(w.kind), Dur: float64(t1.Sub(t0))})
	}
	return ws
}

// tracedWrites is what the layered writer measured.
type tracedWrites struct {
	writeStats
	commit, undo, apply []float64 // ns per call
	log, ckpt           ioTotals
}

// layeredWrites is the traced run's writer: it calls
// catalog.UpdateBatchContext for batches and catalog.UpdateContext with
// the editor's Undo or Redo, as the handler does, with a span around
// each call. The catalog's FS charges its log and checkpoint operations
// to that span; the writer is the only client doing storage I/O, so the
// FS totals around a call are that call's.
func layeredWrites(s *served, seq []writeOp, rec *recorder) tracedWrites {
	tw := tracedWrites{writeStats: writeStats{last: -1}}
	id := s.docs[0].id
	for i, w := range seq {
		ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
		root := rec.newID()
		s.catFS.parent.Store(root)
		io0 := s.catFS.all()
		t0 := time.Now()
		var err error
		name := "catalog.commit"
		switch w.kind {
		case batchWrite:
			err = s.cat.UpdateBatchContext(ctx, id, w.ops, nil)
		case undoWrite:
			name = "catalog.undo"
			err = s.cat.UpdateContext(ctx, id, func(d *core.Document) error { return d.Edit().Undo() })
		case redoWrite:
			name = "catalog.undo"
			err = s.cat.UpdateContext(ctx, id, func(d *core.Document) error { return d.Edit().Redo() })
		}
		d := time.Since(t0)
		cancel()
		io1 := s.catFS.all()
		rec.add(span{ID: root, Name: name, Start: rec.offset(t0), Dur: int64(d)})
		if err != nil {
			tw.failed++
			continue
		}
		lg, ck := io1[ioLog].sub(io0[ioLog]), io1[ioCheckpoint].sub(io0[ioCheckpoint])
		tw.log, tw.ckpt = tw.log.add(lg), tw.ckpt.add(ck)
		tw.acked++
		tw.last = i
		tw.ss = append(tw.ss, sample{Kind: int(w.kind), Dur: float64(d)})
		if w.kind == batchWrite {
			tw.commit = append(tw.commit, float64(d))
			tw.apply = append(tw.apply, float64(int64(d)-lg.NS()-ck.NS()))
		} else {
			tw.undo = append(tw.undo, float64(d))
		}
	}
	return tw
}

func (tw tracedWrites) report(r *runner) {
	if tw.acked == 0 {
		return
	}
	n := float64(tw.acked)
	r.layer["catalog.commit_ms"] = mean(tw.commit) / 1e6
	r.layer["catalog.undo_ms"] = mean(tw.undo) / 1e6
	r.layer["catalog.apply_ms"] = mean(tw.apply) / 1e6
	r.layer["store.wal_ms"] = float64(tw.log.NS()) / n / 1e6
	r.layer["store.wal_kb_per_commit"] = float64(tw.log.WriteBytes) / n / 1024
	r.layer["store.checkpoint_ms"] = float64(tw.ckpt.NS()) / n / 1e6
	r.layer["store.checkpoint_kb_per_commit"] = float64(tw.ckpt.WriteBytes) / n / 1024
	r.layer["faultfs.write_ms"] = float64(tw.log.WriteNS+tw.ckpt.WriteNS) / n / 1e6
	r.layer["faultfs.sync_ms"] = float64(tw.log.SyncNS+tw.ckpt.SyncNS) / n / 1e6
	r.layer["faultfs.syncs_per_commit"] = float64(tw.log.Syncs+tw.ckpt.Syncs) / n
	r.note("traced writes: %d acknowledged, %d failed", tw.acked, tw.failed)
}

// checkRestart opens a fresh catalog on the served directory, as a
// restart would, and checks that the document holds exactly the state
// of the last acknowledged write: unchanged element counts in the
// generated hierarchies, and the writer's marks with their attributes.
func (r *runner) checkRestart(s *served, seq []writeOp, last int) {
	in := s.docs[0]
	var want []mark
	if last >= 0 {
		want = seq[last].after
	}
	cat, err := catalog.Open(s.dir, catalog.Options{})
	if err != nil {
		r.failCheck("restart: %v", err)
		return
	}
	doc, err := cat.Get(in.id)
	if err != nil {
		r.failCheck("restart: %v", err)
		return
	}
	g := doc.GODDAG()
	got := hierCounts(g)
	wantCounts := make(map[string]int, len(in.perHier)+1)
	for h, n := range in.perHier {
		wantCounts[h] = n
	}
	if last >= 0 {
		wantCounts[editHier] = len(want)
	}
	if !sameCounts(got, wantCounts) {
		r.failCheck("restart: element counts %v, want %v", got, wantCounts)
		return
	}
	if last < 0 {
		return
	}
	els := g.Hierarchy(editHier).Elements()
	for i, el := range els {
		v, _ := el.Attr("n")
		if el.Span() != want[i].span || v != want[i].n {
			r.failCheck("restart: mark %d is %v n=%q, want %v n=%q", i, el.Span(), v, want[i].span, want[i].n)
			return
		}
	}
	r.note("restart check: %d acknowledged writes readable after reopening", last+1)
}
