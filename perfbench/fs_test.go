package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/corpus"
	"repro/internal/editor"
	"repro/internal/store"
)

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// One save writes exactly the file it leaves behind, syncs the file and
// its directory, renames once, and is charged to the FS's save class.
func TestCountingFSSave(t *testing.T) {
	doc, err := corpus.Fig1Document()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fig1.gdag")
	fsys := newCountingFS(ioIngest, true, nil)
	if err := store.SaveFS(fsys, path, doc); err != nil {
		t.Fatal(err)
	}
	got := fsys.totals(ioIngest)
	if want := fileSize(t, path); got.WriteBytes != want {
		t.Errorf("counted %d bytes written, file has %d", got.WriteBytes, want)
	}
	if got.Syncs != 2 || got.Renames != 1 {
		t.Errorf("syncs=%d renames=%d, want 2 and 1", got.Syncs, got.Renames)
	}
	if got.WriteNS <= 0 || got.SyncNS <= 0 {
		t.Errorf("timed FS recorded write %dns, sync %dns", got.WriteNS, got.SyncNS)
	}
	for _, cl := range []ioClass{ioLog, ioCheckpoint, ioRead} {
		if o := fsys.totals(cl); o != (ioTotals{}) {
			t.Errorf("class %s counted %+v for a save", ioClassNames[cl], o)
		}
	}
}

// One op batch through a catalog with the write-ahead log on: the log
// class gets exactly the batch's framed record and the append and reset
// syncs; the checkpoint class gets exactly the saved document, its sync,
// rename and directory sync.
func TestCountingFSUpdateBatch(t *testing.T) {
	doc, err := corpus.Fig1Document()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := store.Save(filepath.Join(dir, "fig1.gdag"), doc); err != nil {
		t.Fatal(err)
	}
	fsys := newCountingFS(ioCheckpoint, false, nil)
	cat, err := catalog.Open(dir, catalog.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Get("fig1"); err != nil {
		t.Fatal(err)
	}
	if fsys.totals(ioRead).Maps != 1 {
		t.Errorf("load mapped %d files, want 1", fsys.totals(ioRead).Maps)
	}
	before := fsys.all()
	ops := []editor.Op{
		{Op: "insert-markup", Hierarchy: editHier, Tag: editTag, Start: 0, End: 3},
		{Op: "set-attr", Hierarchy: editHier, Index: 0, Name: "n", Value: "1"},
	}
	if err := cat.UpdateBatch("fig1", ops, nil); err != nil {
		t.Fatal(err)
	}
	after := fsys.all()
	lg := after[ioLog].sub(before[ioLog])
	ck := after[ioCheckpoint].sub(before[ioCheckpoint])

	payload, err := json.Marshal(editor.Batch{Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	frame := int64(1 + 4 + len(binary.AppendUvarint(nil, uint64(len(payload)))) + len(payload) + 4)
	if lg.WriteBytes != frame || lg.Writes != 1 {
		t.Errorf("log: %d bytes in %d writes, want one %d-byte record", lg.WriteBytes, lg.Writes, frame)
	}
	if lg.Syncs != 2 {
		t.Errorf("log: %d syncs, want 2 (append, reset)", lg.Syncs)
	}
	if want := fileSize(t, filepath.Join(dir, "fig1.gdag")); ck.WriteBytes != want {
		t.Errorf("checkpoint: counted %d bytes, saved file has %d", ck.WriteBytes, want)
	}
	if ck.Syncs != 2 || ck.Renames != 1 {
		t.Errorf("checkpoint: syncs=%d renames=%d, want 2 and 1", ck.Syncs, ck.Renames)
	}
	if wal := fileSize(t, filepath.Join(dir, "fig1.wal")); wal != store.WALHeaderLen {
		t.Errorf("log holds %d bytes after the checkpoint, want the %d-byte header", wal, store.WALHeaderLen)
	}
	if in := after[ioIngest].sub(before[ioIngest]); in != (ioTotals{}) {
		t.Errorf("ingest class counted %+v on a catalog FS", in)
	}
}
