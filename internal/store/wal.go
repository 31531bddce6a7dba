// Write-ahead log for edit transactions, and the catalog's one commit
// point. Each catalogued document gets one append-only segment
// (<id>.wal) next to its .gdag file. The edit path appends the
// serialized op batch (the HTTP edit wire format, package editor's
// Batch) stamped with the document's next commit sequence number (LSN)
// and fsyncs it BEFORE the batch is applied: once that fsync returns,
// the edit is committed. The .gdag file is only a checkpoint — a full
// atomic save, stamped with the LSN of the last record it contains
// (see SaveAtLSN), after which the log is reset. Checkpoints run when
// the log outgrows its base file, after a fixed number of records, and
// at shutdown; between them the log is what makes edits durable.
//
// Segment layout (version 2):
//
//	header:  magic "GWAL", version byte
//	records: kind byte ('O' op batch JSON, 'S' full-document snapshot),
//	         LSN (8 bytes BE),
//	         payload length (uvarint), payload,
//	         CRC-32 (Castagnoli) of everything since the kind byte (4 bytes BE)
//
// Records are self-checking: replay scans forward and stops at the
// first record whose frame is incomplete or whose checksum fails — by
// construction (appends are sequential and fsynced one record at a
// time) damage can only be a tail, which OpenWAL truncates away. That
// is exactly the state a power cut mid-append leaves behind.
//
// The LSN makes replay exactly-once: replay applies, in order, only the
// records whose LSN is above the one stamped in the base file. If a
// crash lands between a checkpoint's rename and the log reset (or the
// rename's directory sync failed), the stale records are at or below
// the new base's LSN and replay skips them instead of applying them
// twice. Snapshot records carry the post-state document wholesale.
//
// Version 1 segments, written before LSNs existed, stamped each op
// record with the fingerprint of the state it was logged against (see
// Fingerprint). OpenWAL still reads them so a segment left by a crash
// of an older binary replays once; such a segment accepts no appends
// until Reset rewrites it as version 2.
//
// A WAL is single-writer: the catalog serializes appends under each
// document's write lock. Appends that fail part-way rewind the file to
// the last durable record boundary so the segment stays well-formed.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/faultfs"
	"repro/internal/goddag"
)

// WAL segment format constants.
const (
	walMagic   = "GWAL"
	walVersion = 2
	walV1      = 1 // fingerprint-stamped records, read for migration only

	// WALHeaderLen is the byte length of the segment header; an empty
	// (fully truncated) log is exactly this long.
	WALHeaderLen = 5
)

// RecordKind discriminates WAL records.
type RecordKind byte

// The record kinds.
const (
	// RecordOps is a serialized editor op batch (editor.Batch JSON, the
	// same bytes the HTTP edit endpoint accepts), logged before the
	// batch is applied. Replay re-applies it through the transaction
	// API.
	RecordOps RecordKind = 'O'
	// RecordSnapshot is a full document in the .gdag encoding, logged
	// after an edit whose effect is not expressible as an op batch
	// (undo, redo, arbitrary Update closures). Replay replaces the
	// document wholesale.
	RecordSnapshot RecordKind = 'S'
)

// Record is one recovered WAL entry.
type Record struct {
	Kind RecordKind
	// LSN is the record's commit sequence number (version 2 segments).
	LSN uint64
	// Pre is the fingerprint of the document state a version 1 op
	// record was logged against; zero in version 2 segments.
	Pre uint32
	// Payload is the record body: editor.Batch JSON or .gdag bytes.
	Payload []byte
}

// WAL is one open write-ahead log segment.
type WAL struct {
	fsys    faultfs.FS
	path    string
	f       faultfs.File
	size    int64 // header + complete durable records
	version byte  // walV1 until Reset rewrites an old segment
}

// maxWALRecord bounds a single record payload against corrupted length
// fields; a larger length is treated as a torn tail.
const maxWALRecord = 1 << 30

// OpenWAL opens (creating if necessary) the write-ahead log at path and
// scans it: the surviving complete records are returned for replay and
// any torn tail is truncated away, so subsequent appends extend a
// well-formed segment. A nil record slice means the log was empty.
func OpenWAL(fsys faultfs.FS, path string) (*WAL, []Record, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: wal %s: %w", path, err)
	}
	w := &WAL{fsys: fsys, path: path, f: f, version: walVersion}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: wal %s: %w", path, err)
	}
	if len(data) < WALHeaderLen {
		// Fresh (or torn-at-birth) segment: write the header.
		if err := w.reinit(); err != nil {
			f.Close()
			return nil, nil, err
		}
		return w, nil, nil
	}
	if string(data[:4]) != walMagic || (data[4] != walVersion && data[4] != walV1) {
		f.Close()
		return nil, nil, fmt.Errorf("store: wal %s: bad header %q version %d", path, data[:4], data[4])
	}
	w.version = data[4]
	recs, good := scanRecords(data[WALHeaderLen:], w.version)
	if w.version == walV1 && len(recs) == 0 {
		// Nothing to migrate: start the segment over as version 2.
		if err := w.reinit(); err != nil {
			f.Close()
			return nil, nil, err
		}
		return w, nil, nil
	}
	w.size = WALHeaderLen + good
	if int64(len(data)) > w.size {
		// Torn tail from a crash mid-append: cut it so the segment ends
		// on a record boundary again.
		if err := fsys.Truncate(path, w.size); err != nil {
			f.Close()
			return nil, recs, fmt.Errorf("store: wal %s: truncating torn tail: %w", path, err)
		}
	}
	return w, recs, nil
}

// ScanWALRecords parses the record region of a version 2 segment
// (everything after the header), returning the complete records and the
// byte length of the valid prefix. The scan stops at the first
// incomplete or checksum-failing record — appends are sequential, so
// any damage is a tail. It never fails: corrupt input just shortens the
// valid prefix.
func ScanWALRecords(data []byte) ([]Record, int64) {
	return scanRecords(data, walVersion)
}

// scanRecords is ScanWALRecords for either segment version: the frames
// differ only in the stamp after the kind byte (an 8-byte LSN in
// version 2, a 4-byte fingerprint in version 1).
func scanRecords(data []byte, version byte) ([]Record, int64) {
	stamp := 8
	if version == walV1 {
		stamp = 4
	}
	var recs []Record
	off := int64(0)
	for off < int64(len(data)) {
		rest := data[off:]
		// kind(1) + stamp + len(>=1) + crc(4)
		if len(rest) < 1+stamp+1+4 {
			break
		}
		kind := RecordKind(rest[0])
		if kind != RecordOps && kind != RecordSnapshot {
			break
		}
		r := Record{Kind: kind}
		if version == walV1 {
			r.Pre = binary.BigEndian.Uint32(rest[1:5])
		} else {
			r.LSN = binary.BigEndian.Uint64(rest[1:9])
		}
		n, ln := binary.Uvarint(rest[1+stamp:])
		if ln <= 0 || n > maxWALRecord {
			break
		}
		body := 1 + stamp + ln + int(n)
		if int64(body)+4 > int64(len(rest)) {
			break
		}
		want := binary.BigEndian.Uint32(rest[body : body+4])
		if crc32.Checksum(rest[:body], crcTable) != want {
			break
		}
		r.Payload = rest[1+stamp+ln : body]
		recs = append(recs, r)
		off += int64(body) + 4
	}
	return recs, off
}

// appendFrame appends one framed version 2 record to dst: kind, LSN,
// uvarint payload length, payload, CRC over all of it.
func appendFrame(dst []byte, kind RecordKind, lsn uint64, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, byte(kind))
	dst = binary.BigEndian.AppendUint64(dst, lsn)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// reinit truncates the segment to empty and writes a fresh header.
func (w *WAL) reinit() error {
	if err := w.fsys.Truncate(w.path, 0); err != nil {
		return fmt.Errorf("store: wal %s: %w", w.path, err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: wal %s: %w", w.path, err)
	}
	hdr := append([]byte(walMagic), walVersion)
	if _, err := w.f.Write(hdr); err != nil {
		return fmt.Errorf("store: wal %s: %w", w.path, err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal %s: %w", w.path, err)
	}
	w.size = WALHeaderLen
	w.version = walVersion
	return nil
}

// Size returns the durable length of the segment. Capture it before an
// Append to Rewind a record whose transaction was later vetoed.
func (w *WAL) Size() int64 { return w.size }

// Empty reports whether the segment holds no records.
func (w *WAL) Empty() bool { return w.size <= WALHeaderLen }

// Legacy reports a version 1 segment, opened to replay its records
// once: it takes no appends until Reset rewrites it as version 2.
func (w *WAL) Legacy() bool { return w.version == walV1 }

// Path returns the segment's file path.
func (w *WAL) Path() string { return w.path }

// Records re-reads the segment's durable records through the open
// handle — the replay input for a document reloaded after eviction,
// whose log was scanned (and its tail repaired) when it was opened.
func (w *WAL) Records() ([]Record, error) {
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("store: wal %s: %w", w.path, err)
	}
	data := make([]byte, w.size)
	if _, err := io.ReadFull(w.f, data); err != nil {
		return nil, fmt.Errorf("store: wal %s: %w", w.path, err)
	}
	recs, _ := scanRecords(data[WALHeaderLen:], w.version)
	return recs, nil
}

// Append frames, writes, and fsyncs one record. On failure it rewinds
// the file to the previous durable boundary (best-effort) and the
// caller must treat the record as NOT logged: after a write or sync
// error the on-disk state is indeterminate until the rewind, which
// restores it. Only a successful Append makes the record durable — it
// is the commit point of the logged-edit path. A version 1 segment
// accepts no appends: its records carry no LSNs, so the caller must
// checkpoint and Reset it first.
func (w *WAL) Append(kind RecordKind, lsn uint64, payload []byte) error {
	if w.version != walVersion {
		return fmt.Errorf("store: wal append: %s is a version %d segment; reset it first", w.path, w.version)
	}
	frame := appendFrame(make([]byte, 0, 1+8+binary.MaxVarintLen64+len(payload)+4), kind, lsn, payload)
	if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	if _, err := w.f.Write(frame); err != nil {
		w.rewind()
		return fmt.Errorf("store: wal append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.rewind()
		return fmt.Errorf("store: wal append: %w", err)
	}
	w.size += int64(len(frame))
	return nil
}

// rewind truncates back to the durable size after a failed append,
// best-effort: if the truncate itself fails, the tail is torn and the
// next OpenWAL's scan will cut it (the record's checksum only went to
// disk if the full frame did — and a complete frame above the base's
// LSN replays, the documented at-least-once outcome of an
// indeterminate append).
func (w *WAL) rewind() {
	_ = w.fsys.Truncate(w.path, w.size)
}

// Rewind truncates the segment back to size (a value previously
// returned by Size), dropping records appended after it — used to
// unlog a batch whose transaction was vetoed after its intent was
// appended.
func (w *WAL) Rewind(size int64) error {
	if size < WALHeaderLen || size > w.size {
		return fmt.Errorf("store: wal rewind to %d outside [%d,%d]", size, WALHeaderLen, w.size)
	}
	if err := w.fsys.Truncate(w.path, size); err != nil {
		return fmt.Errorf("store: wal rewind: %w", err)
	}
	w.size = size
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal rewind: %w", err)
	}
	return nil
}

// Reset empties the segment after a successful checkpoint: the .gdag
// file now carries the state, so the log's records are spent. A version
// 1 segment is rewritten with a version 2 header.
func (w *WAL) Reset() error {
	if w.version != walVersion {
		return w.reinit()
	}
	return w.Rewind(WALHeaderLen)
}

// Close releases the file handle. The segment stays on disk for the
// next open.
func (w *WAL) Close() error { return w.f.Close() }

// Fingerprint summarizes a document's exact persisted state: the
// CRC-32 (Castagnoli) of its deterministic Encode stream. Version 1
// WAL segments stamp each op-batch record with the fingerprint of the
// state it was logged against, so replaying one needs it. Cost is one
// encode pass with no I/O.
func Fingerprint(doc *goddag.Document) uint32 {
	h := crc32.New(crcTable)
	// Encode to the hash alone: bufio over a hash cannot fail.
	_ = Encode(h, doc)
	return h.Sum32()
}
