package catalog

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/editor"
	"repro/internal/faultfs"
	"repro/internal/store"
)

// writeWordsDir builds a catalog directory holding one ASCII document
// of n words ("w0 w1 ..."), large enough that a handful of logged
// batches stays smaller than the source and no checkpoint is due.
func writeWordsDir(t *testing.T, id string, n int) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString("<w>wd</w>")
	}
	b.WriteString("</r>")
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, id+".xml"), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// markBatch marks the i-th word ("wd" at byte 3i) in the edits
// hierarchy; marks never overlap, so replaying one twice would add an
// equal-span wrapper rather than veto.
func markBatch(i int) []editor.Op {
	return []editor.Op{{Op: "insert-markup", Hierarchy: "edits", Tag: "edit", Start: 3 * i, End: 3*i + 2}}
}

// reopenCount opens a fresh catalog on dir, as a restart after a crash
// would, and returns the document's edit elements and the records the
// open replayed.
func reopenCount(t *testing.T, dir, id string) (int, uint64) {
	t.Helper()
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return countEdits(doc), c.Stats().Replayed
}

// TestCrashReplaysAcknowledgedRecords commits k batches past the last
// checkpoint and crashes: every acknowledged batch replays.
func TestCrashReplaysAcknowledgedRecords(t *testing.T) {
	const k = 6
	dir := writeWordsDir(t, "doc", 200)
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if err := c.UpdateBatch("doc", markBatch(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if ds, _ := c.Doc("doc"); ds.Pending != k || ds.Dirty {
		t.Fatalf("before the crash: %+v", ds)
	}
	if _, err := os.Stat(filepath.Join(dir, "doc.gdag")); !os.IsNotExist(err) {
		t.Fatalf("a commit wrote a checkpoint (stat: %v)", err)
	}
	// Crash: c is abandoned with its log open.
	if got, replayed := reopenCount(t, dir, "doc"); got != k || replayed != k {
		t.Fatalf("recovered %d edits replaying %d records, want %d and %d", got, replayed, k, k)
	}
	// Recovery checkpointed: a second restart replays nothing.
	if got, replayed := reopenCount(t, dir, "doc"); got != k || replayed != 0 {
		t.Fatalf("second reopen: %d edits, %d replayed", got, replayed)
	}
}

// TestCheckpointRenameBeforeResetNoDoubleApply lets the record-count
// checkpoint land but fails its log reset, then crashes: the log still
// holds every batch, and only the checkpoint's LSN keeps replay from
// applying them a second time.
func TestCheckpointRenameBeforeResetNoDoubleApply(t *testing.T) {
	const k = 5
	dir := writeWordsDir(t, "doc", 200)
	inj := faultfs.NewInjector(faultfs.OS)
	c, err := Open(dir, fastOpts(inj))
	if err != nil {
		t.Fatal(err)
	}
	c.ckptRecords = k
	for i := 0; i < k-1; i++ {
		if err := c.UpdateBatch("doc", markBatch(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	inj.SetHook(func(op faultfs.Op, p string) error {
		if op == faultfs.OpTruncate && isWAL(p) {
			return errors.New("injected: crash before the log reset")
		}
		return nil
	})
	if err := c.UpdateBatch("doc", markBatch(k-1), nil); err != nil {
		t.Fatal(err)
	}
	ds, _ := c.Doc("doc")
	if ds.Pending != 0 || !strings.HasSuffix(ds.Paths[0], "doc.gdag") {
		t.Fatalf("the k-th commit did not checkpoint: %+v", ds)
	}
	if fi, err := os.Stat(filepath.Join(dir, "doc.wal")); err != nil || fi.Size() <= store.WALHeaderLen {
		t.Fatalf("log was reset despite the fault (%v)", err)
	}
	if got, replayed := reopenCount(t, dir, "doc"); got != k || replayed != 0 {
		t.Fatalf("recovered %d edits replaying %d records, want %d and 0", got, replayed, k)
	}
}

// TestUndoSnapshotPastCheckpointReplays logs an undo and a redo (full
// snapshot records) past the checkpoint and crashes after each: replay
// installs the snapshot, so the recovered state is the post-undo one.
func TestUndoSnapshotPastCheckpointReplays(t *testing.T) {
	dir := writeWordsDir(t, "doc", 400)
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.UpdateBatch("doc", markBatch(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	undo := func(d *core.Document) error { return d.Edit().Undo() }
	if err := c.Update("doc", undo); err != nil {
		t.Fatal(err)
	}
	if ds, _ := c.Doc("doc"); ds.Pending != 4 {
		t.Fatalf("undo not logged past the checkpoint: %+v", ds)
	}
	if got, replayed := reopenCount(t, dir, "doc"); got != 2 || replayed != 4 {
		t.Fatalf("after undo + crash: %d edits replaying %d records, want 2 and 4", got, replayed)
	}
}

// TestEvictWithPendingRecordsReloads evicts a document whose log holds
// commits past its checkpoint: the eviction is allowed, the reload
// replays the records through the open log, later commits continue the
// sequence, and Close checkpoints it all.
func TestEvictWithPendingRecordsReloads(t *testing.T) {
	const k = 4
	dir := writeWordsDir(t, "doc", 200)
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if err := c.UpdateBatch("doc", markBatch(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Evict("doc") {
		t.Fatal("a document with logged commits refused eviction")
	}
	doc, err := c.Get("doc")
	if err != nil {
		t.Fatal(err)
	}
	if got := countEdits(doc); got != k {
		t.Fatalf("reload has %d edits, want %d", got, k)
	}
	if ds, _ := c.Doc("doc"); ds.Pending != k || ds.Replayed != k {
		t.Fatalf("after reload: %+v", ds)
	}
	if err := c.UpdateBatch("doc", markBatch(k), nil); err != nil {
		t.Fatal(err)
	}
	// Evicted again, then crash: the restart replays all k+1.
	if !c.Evict("doc") {
		t.Fatal("second eviction refused")
	}
	if got, replayed := reopenCount(t, dir, "doc"); got != k+1 || replayed != k+1 {
		t.Fatalf("after crash: %d edits replaying %d, want %d", got, replayed, k+1)
	}
}

// TestCloseCheckpoints edits (a batch and an undo/redo pair), closes
// the catalog, and reopens it: the reopen replays nothing, the log is
// back to its header, and the edits are in the checkpoint.
func TestCloseCheckpoints(t *testing.T) {
	dir := writeWordsDir(t, "doc", 200)
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.UpdateBatch("doc", markBatch(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Update("doc", func(d *core.Document) error { return d.Edit().Undo() }); err != nil {
		t.Fatal(err)
	}
	if err := c.Update("doc", func(d *core.Document) error { return d.Edit().Redo() }); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "doc.wal")); err != nil || fi.Size() != store.WALHeaderLen {
		t.Fatalf("log after Close: %v, size %d", err, fi.Size())
	}
	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := c2.Get("doc")
	if err != nil {
		t.Fatal(err)
	}
	if got := countEdits(doc); got != 2 {
		t.Fatalf("reopened with %d edits, want 2", got)
	}
	if s := c2.Stats(); s.Replayed != 0 || s.Recovered != 0 {
		t.Fatalf("reopen after Close replayed %d records (recovered %d)", s.Replayed, s.Recovered)
	}
	if ds, _ := c2.Doc("doc"); !ds.Mapped {
		t.Fatalf("checkpoint did not reopen mapped: %+v", ds)
	}
}

// appendV1Frame frames a version 1 WAL record — kind, the 4-byte
// fingerprint of the state it was logged against, uvarint length,
// payload, CRC-32C — as binaries before LSNs wrote them.
func appendV1Frame(dst []byte, kind store.RecordKind, pre uint32, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, byte(kind))
	dst = binary.BigEndian.AppendUint32(dst, pre)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crc32.MakeTable(crc32.Castagnoli)))
}

// TestV1SegmentMigrates leaves a version 1 segment behind, as a crash of
// the previous binary would: its fingerprint-gated records replay
// exactly once (a stale one is skipped), the recovery checkpoints and
// rewrites the log as version 2, and later commits log with LSNs.
func TestV1SegmentMigrates(t *testing.T) {
	dir := writeWordsDir(t, "doc", 200)
	scratch, err := Open(dir, Options{DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := scratch.Get("doc")
	if err != nil {
		t.Fatal(err)
	}
	var seg []byte
	seg = append(seg, "GWAL\x01"...)
	for i := 0; i < 2; i++ {
		payload, _ := json.Marshal(editor.Batch{Ops: markBatch(i)})
		seg = appendV1Frame(seg, store.RecordOps, store.Fingerprint(base.GODDAG()), payload)
		if err := base.Edit().ApplyBatch(markBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A record whose pre-state is not the document's (it already reached
	// a base) must not apply.
	stale, _ := json.Marshal(editor.Batch{Ops: markBatch(9)})
	seg = appendV1Frame(seg, store.RecordOps, 0xdeadbeef, stale)
	if err := os.WriteFile(filepath.Join(dir, "doc.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	if got, replayed := reopenCount(t, dir, "doc"); got != 2 || replayed != 2 {
		t.Fatalf("v1 recovery: %d edits replaying %d records, want 2 and 2", got, replayed)
	}
	wal, err := os.ReadFile(filepath.Join(dir, "doc.wal"))
	if err != nil || len(wal) != store.WALHeaderLen || wal[4] != 2 {
		t.Fatalf("migrated log %q (%v), want an empty version 2 segment", wal, err)
	}
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateBatch("doc", markBatch(5), nil); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Replayed != 0 {
		t.Fatalf("second open replayed %d records", s.Replayed)
	}
	if got, replayed := reopenCount(t, dir, "doc"); got != 3 || replayed != 1 {
		t.Fatalf("after a v2 commit + crash: %d edits replaying %d, want 3 and 1", got, replayed)
	}
}
