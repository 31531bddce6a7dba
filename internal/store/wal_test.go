package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultfs"
)

func openTestWAL(t *testing.T, fsys faultfs.FS, path string) (*WAL, []Record) {
	t.Helper()
	w, recs, err := OpenWAL(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, recs
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.wal")
	w, recs := openTestWAL(t, faultfs.OS, path)
	if len(recs) != 0 || !w.Empty() {
		t.Fatalf("fresh WAL: %d records, empty=%v", len(recs), w.Empty())
	}
	batches := [][]byte{
		[]byte(`{"ops":[{"op":"set-attr"}]}`),
		[]byte(`{"ops":[{"op":"insert-markup","tag":"w"}]}`),
	}
	if err := w.Append(RecordOps, 1, batches[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(RecordOps, 2, batches[1]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(RecordSnapshot, 3, []byte("GDAGsnap")); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, recs := openTestWAL(t, faultfs.OS, path)
	if len(recs) != 3 {
		t.Fatalf("reopened with %d records, want 3", len(recs))
	}
	if recs[0].Kind != RecordOps || recs[0].LSN != 1 || !bytes.Equal(recs[0].Payload, batches[0]) {
		t.Fatalf("record 0 = %+v", recs[0])
	}
	if recs[1].LSN != 2 || !bytes.Equal(recs[1].Payload, batches[1]) {
		t.Fatalf("record 1 = %+v", recs[1])
	}
	if recs[2].Kind != RecordSnapshot || recs[2].LSN != 3 || string(recs[2].Payload) != "GDAGsnap" {
		t.Fatalf("record 2 = %+v", recs[2])
	}

	// Reset empties; a further append starts a new tail.
	if err := w2.Reset(); err != nil {
		t.Fatal(err)
	}
	if !w2.Empty() {
		t.Fatal("Reset left records")
	}
	if err := w2.Append(RecordOps, 7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, recs = openTestWAL(t, faultfs.OS, path)
	if len(recs) != 1 || recs[0].LSN != 7 {
		t.Fatalf("after reset+append: %+v", recs)
	}
}

// TestWALTornTailTruncated cuts a WAL at every possible byte length and
// asserts reopening always recovers exactly the records whose frames
// fully survived — the power-cut contract.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	w, _ := openTestWAL(t, faultfs.OS, full)
	payloads := [][]byte{[]byte("first"), []byte("second-longer"), []byte("third")}
	offsets := []int64{w.Size()} // durable size after 0,1,2,3 records
	for i, p := range payloads {
		if err := w.Append(RecordOps, uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, w.Size())
	}
	w.Close()
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(data); cut++ {
		torn := filepath.Join(dir, "torn.wal")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, recs, err := OpenWAL(faultfs.OS, torn)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// The number of surviving records is the number of whole frames
		// within the cut.
		want := 0
		for want < len(payloads) && offsets[want+1] <= int64(cut) {
			want++
		}
		if len(recs) != want {
			t.Fatalf("cut %d: %d records survived, want %d", cut, len(recs), want)
		}
		for i, r := range recs {
			if !bytes.Equal(r.Payload, payloads[i]) {
				t.Fatalf("cut %d record %d: %q", cut, i, r.Payload)
			}
		}
		// The segment is appendable again after the torn tail is cut.
		if err := w2.Append(RecordOps, 9, []byte("post")); err != nil {
			t.Fatalf("cut %d: append after truncation: %v", cut, err)
		}
		w2.Close()
		_, recs2, err := OpenWAL(faultfs.OS, torn)
		if err != nil || len(recs2) != want+1 {
			t.Fatalf("cut %d: re-reopen %d records, %v", cut, len(recs2), err)
		}
	}
}

// TestWALBitFlipStopsScan flips each byte of a record region in turn;
// the scan must never return a corrupted payload as valid.
func TestWALBitFlipStopsScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.wal")
	w, _ := openTestWAL(t, faultfs.OS, path)
	if err := w.Append(RecordOps, 1, []byte("payload-one")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(RecordOps, 2, []byte("payload-two")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	region := data[WALHeaderLen:]
	for i := range region {
		flipped := append([]byte(nil), region...)
		flipped[i] ^= 0x40
		recs, _ := ScanWALRecords(flipped)
		for _, r := range recs {
			if s := string(r.Payload); s != "payload-one" && s != "payload-two" {
				t.Fatalf("flip at %d surfaced corrupted payload %q", i, s)
			}
		}
	}
}

// TestWALFailedAppendRewinds injects a sync failure mid-append and
// asserts the segment is rewound to the previous record boundary: the
// failed record must not resurface on reopen.
func TestWALFailedAppendRewinds(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS)
	path := filepath.Join(t.TempDir(), "d.wal")
	w, _ := openTestWAL(t, inj, path)
	if err := w.Append(RecordOps, 1, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	errDisk := errors.New("injected: EIO")
	inj.SetHook(func(op faultfs.Op, p string) error {
		if op == faultfs.OpSync {
			return errDisk
		}
		return nil
	})
	if err := w.Append(RecordOps, 2, []byte("lost")); !errors.Is(err, errDisk) {
		t.Fatalf("append under sync fault = %v", err)
	}
	inj.SetHook(nil)
	w.Close()

	_, recs, err := OpenWAL(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "keep" {
		t.Fatalf("after failed append: %+v", recs)
	}
}

// TestWALVetoRewind drops a logged batch whose transaction was vetoed.
func TestWALVetoRewind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.wal")
	w, _ := openTestWAL(t, faultfs.OS, path)
	if err := w.Append(RecordOps, 1, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	mark := w.Size()
	if err := w.Append(RecordOps, 2, []byte("vetoed")); err != nil {
		t.Fatal(err)
	}
	if err := w.Rewind(mark); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, recs, err := OpenWAL(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "committed" {
		t.Fatalf("after veto rewind: %+v", recs)
	}
}

// appendFrameV1 frames a version 1 record (4-byte fingerprint stamp),
// the layout segments had before LSNs.
func appendFrameV1(dst []byte, kind RecordKind, pre uint32, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, byte(kind))
	dst = binary.BigEndian.AppendUint32(dst, pre)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// TestWALV1SegmentMigrates opens a version 1 segment: its records come
// back with their fingerprints, it refuses appends, and Reset rewrites
// it as an empty version 2 segment that takes LSN-stamped records.
func TestWALV1SegmentMigrates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.wal")
	seg := append([]byte("GWAL\x01"), appendFrameV1(nil, RecordOps, 0xabcd1234, []byte("old-batch"))...)
	seg = appendFrameV1(seg, RecordSnapshot, 0, []byte("old-snap"))
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	w, recs := openTestWAL(t, faultfs.OS, path)
	if !w.Legacy() || len(recs) != 2 {
		t.Fatalf("v1 open: legacy=%v, %d records", w.Legacy(), len(recs))
	}
	if recs[0].Pre != 0xabcd1234 || recs[0].LSN != 0 || string(recs[0].Payload) != "old-batch" ||
		recs[1].Kind != RecordSnapshot || string(recs[1].Payload) != "old-snap" {
		t.Fatalf("v1 records = %+v", recs)
	}
	if err := w.Append(RecordOps, 1, []byte("new")); err == nil {
		t.Fatal("append to a version 1 segment succeeded")
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.Legacy() || !w.Empty() {
		t.Fatalf("after reset: legacy=%v empty=%v", w.Legacy(), w.Empty())
	}
	if err := w.Append(RecordOps, 1, []byte("new")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, recs := openTestWAL(t, faultfs.OS, path)
	if w2.Legacy() || len(recs) != 1 || recs[0].LSN != 1 || string(recs[0].Payload) != "new" {
		t.Fatalf("reopened migrated segment: legacy=%v %+v", w2.Legacy(), recs)
	}

	// An empty version 1 segment has nothing to migrate and opens as
	// version 2 straight away.
	empty := filepath.Join(t.TempDir(), "e.wal")
	if err := os.WriteFile(empty, []byte("GWAL\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	w3, _ := openTestWAL(t, faultfs.OS, empty)
	if w3.Legacy() {
		t.Fatal("empty v1 segment still legacy")
	}
	if err := w3.Append(RecordOps, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
}

// TestWALRecordsThroughHandle re-reads records through the open handle,
// as a reload after eviction does, and gets what a reopen would scan.
func TestWALRecordsThroughHandle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.wal")
	w, _ := openTestWAL(t, faultfs.OS, path)
	for i, p := range []string{"one", "two", "three"} {
		if err := w.Append(RecordOps, uint64(i+1), []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := w.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].LSN != 3 || string(recs[2].Payload) != "three" {
		t.Fatalf("records through handle = %+v", recs)
	}
	// Appends after a re-read still extend the segment at its end.
	if err := w.Append(RecordOps, 4, []byte("four")); err != nil {
		t.Fatal(err)
	}
	if recs, _ = w.Records(); len(recs) != 4 || string(recs[3].Payload) != "four" {
		t.Fatalf("after append: %+v", recs)
	}
}
