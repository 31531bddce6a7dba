// Crash safety and degradation for the catalog's write path.
//
// With the write-ahead log on (the default), the fsynced log record is
// each edit's one commit point. UpdateBatch serializes the op batch,
// appends it to <id>.wal stamped with the document's next commit
// sequence number (LSN), and fsyncs it before the batch is applied and
// the document's indexes repaired. Update (undo, redo, closures) logs a
// full snapshot of the committed state the same way. Nothing else is
// written per commit.
//
// The <id>.gdag file is a checkpoint: a full atomic save stamped with
// the LSN of the last record it contains, after which the log is
// reset. A checkpoint runs when the log past it grows larger than the
// base file or holds checkpointRecords records, when a log append fails
// (the commit then rests on the checkpoint alone), at Close, and after
// a crash recovery replayed records. Replay applies, in order, the
// records whose LSN is above the base file's; a crash between a
// checkpoint's rename and its log reset leaves records at or below the
// new base's LSN, which replay skips, so nothing applies twice. A
// document whose log holds records may be evicted: its reload replays
// them through the open log handle. With DisableWAL every commit is
// saved in full, the only durability left.
//
// A disk that keeps failing degrades service instead of wedging it:
// FailThreshold consecutive failed checkpoints turn the document
// read-only, twice that turns the whole catalog read-only (both sticky
// until restart, both visible in Stats and to the server's /healthz).
// Reads keep working throughout — only the write path sheds.
package catalog

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/editor"
	"repro/internal/goddag"
	"repro/internal/obs"
	"repro/internal/store"
)

// checkpointRecords is the number of logged commits after which the
// log is checkpointed even while it is smaller than its base file: it
// bounds how many op batches a recovery replays.
const checkpointRecords = 64

// ErrReadOnly reports an update rejected because the document (or the
// whole catalog) has degraded to read-only after persistent storage
// failures. Test with errors.Is.
var ErrReadOnly = errors.New("read-only after persistent storage failures")

// ReadOnly reports whether the whole catalog has degraded to read-only.
// Individual documents may degrade earlier; see DocStats.ReadOnly.
func (c *Catalog) ReadOnly() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readOnly
}

// beginEdit registers an update on id: it rejects unknown ids and
// degraded (read-only) targets, and marks the entry mid-edit so
// evictLocked cannot drop the document between the load and the commit
// (a concurrent lock-free Get could then re-cache the pre-edit source
// and the edited document would be shadowed by the stale reload). The
// mark is a counter, not a flag: with several updates queued on one
// document, the first to finish must not drop the guard while the
// others are still editing.
func (c *Catalog) beginEdit(id string) (*entry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return nil, &ErrNotFound{ID: id}
	}
	if c.readOnly || e.readOnly {
		return nil, fmt.Errorf("catalog: update %q: %w", id, ErrReadOnly)
	}
	e.editing++
	return e, nil
}

func (c *Catalog) endEdit(e *entry) {
	c.mu.Lock()
	e.editing--
	c.mu.Unlock()
}

// UpdateBatch applies a wire-format op batch to the document as one
// transaction, write-ahead logged: the serialized batch is appended to
// <id>.wal and fsynced BEFORE it is applied, so once UpdateBatch
// returns nil the edit survives a crash at any later point — whether
// or not a checkpoint has saved it to <id>.gdag yet. A vetoed batch
// (returned as a *editor.BatchError) changes nothing and its
// provisional log record is dropped. post, if non-nil, runs with the
// committed document still under its write lock — a snapshot hook for
// collecting response statistics; the document must not escape it.
func (c *Catalog) UpdateBatch(id string, ops []editor.Op, post func(*core.Document)) error {
	return c.UpdateBatchContext(context.Background(), id, ops, post)
}

// UpdateBatchContext is UpdateBatch bounded by ctx up to the commit
// point: the write-lock acquisition and a cold load return ctx.Err()
// with nothing changed, while a batch whose WAL append has started is
// carried through to the end regardless of ctx — the fsynced record is
// the commit, and a half-abandoned commit is exactly what the edit WAL
// exists to prevent. A trace riding ctx gets the lockWait, log, apply
// and checkpoint stages.
func (c *Catalog) UpdateBatchContext(ctx context.Context, id string, ops []editor.Op, post func(*core.Document)) error {
	e, err := c.beginEdit(id)
	if err != nil {
		return err
	}
	defer c.endEdit(e)
	tr := obs.TraceFrom(ctx)
	lockStart := lockWaitStart(c.met.lockWrite, tr)
	if err := e.rw.Lock(ctx); err != nil {
		return err
	}
	finishLockWait(lockStart, c.met.lockWrite, tr)
	defer e.rw.Unlock()
	doc, err := c.GetContext(ctx, id)
	if err != nil {
		return err
	}

	// Append-before-apply. A failed append falls back to a checkpoint
	// (the edit still applies and is saved in full below) rather than
	// rejecting the edit: availability degrades last, and if the
	// checkpoint also fails the persist counters degrade the document
	// to read-only.
	logged := false
	var mark int64
	if e.logging() {
		sp := tr.Begin("log")
		if payload, err := json.Marshal(editor.Batch{Ops: ops}); err == nil {
			mark = e.wal.Size()
			logged = c.appendLog(e, store.RecordOps, payload)
		}
		sp.End()
	}

	sp := tr.Begin("apply")
	err = doc.Edit().ApplyBatch(ops)
	sp.End()
	if err != nil {
		if logged {
			// Unlog the vetoed batch. A failed rewind is tolerable: the
			// record re-vetoes identically at replay (prevalidation is
			// deterministic), and the next commit reuses its LSN.
			_ = e.wal.Rewind(mark)
		}
		return err
	}
	return c.finishCommit(e, doc, logged, tr, post)
}

// logging reports whether a commit on e is to be logged: the WAL is on
// and the in-memory state is reproducible from the base file plus the
// log. A dirty entry (an edit neither logged nor checkpointed) appends
// nothing — records past the missing one could not replay — and
// checkpoints every commit until one lands.
func (e *entry) logging() bool { return e.wal != nil && !e.dirty }

// appendLog appends one record at the entry's next LSN, reporting
// whether it became durable.
func (c *Catalog) appendLog(e *entry, kind store.RecordKind, payload []byte) bool {
	start := time.Now()
	err := e.wal.Append(kind, e.lsn+1, payload)
	c.met.walAppend.Observe(time.Since(start))
	return err == nil
}

// finishCommit completes an applied edit. With the WAL on the edit
// takes the next LSN — also when its append failed: a checkpoint then
// covers it, and any frame the failed append left behind is at or below
// that checkpoint's LSN. The edit is checkpointed when it was not
// logged or the log is due; post runs; the memory footprint is
// re-accounted. An error means the edit applied in memory but neither
// the log nor a checkpoint holds it.
func (c *Catalog) finishCommit(e *entry, doc *core.Document, logged bool, tr *obs.Trace, post func(*core.Document)) error {
	if c.walOn {
		c.mu.Lock()
		e.lsn++
		c.mu.Unlock()
	}
	var ckptErr error
	if !logged || c.checkpointDue(e) {
		sp := tr.Begin("checkpoint")
		ckptErr = c.checkpoint(e, doc)
		sp.End()
	}
	if post != nil {
		post(doc)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	e.edits++
	if ckptErr != nil && !logged {
		e.dirty = true
	}
	// Re-account the footprint: the edit may have grown or shrunk the
	// document (and its repaired indexes), and each committed
	// transaction or history move also holds a full snapshot on the
	// session's undo/redo stacks — count those too, or sustained edit
	// traffic would blow the budget invisibly.
	if e.doc != nil {
		size := doc.GODDAG().Footprint() + doc.Edit().HistoryFootprint()
		c.resident += size - e.bytes
		e.bytes = size
		c.evictLocked()
	}
	if ckptErr != nil && !logged {
		return fmt.Errorf("catalog: update %q applied but not persisted: %w", e.id, ckptErr)
	}
	return nil
}

// checkpointDue reports whether e's log has outgrown its checkpoint:
// more bytes of records than the base file holds, or checkpointRecords
// commits past it. Called under the entry's write lock.
func (c *Catalog) checkpointDue(e *entry) bool {
	return e.lsn-e.baseLSN >= uint64(c.ckptRecords) ||
		e.wal.Size()-store.WALHeaderLen > e.baseSize
}

// checkpoint saves the document to <id>.gdag, stamped with the entry's
// LSN, repoints the entry to that file, and resets the log. On failure
// the log keeps every record, so the state stays recoverable; the
// failure counts toward degradation. Called under the entry's write
// lock or inside its singleflight load.
func (c *Catalog) checkpoint(e *entry, doc *core.Document) error {
	savePath := filepath.Join(c.dir, e.id+".gdag")
	size, err := c.saveWithRetry(savePath, doc.GODDAG(), e.lsn)
	c.mu.Lock()
	if err != nil {
		c.persistFailLocked(e)
	} else {
		e.paths = []string{savePath}
		e.format = "gdag"
		e.baseLSN, e.baseSize = e.lsn, size
		e.dirty = false
		c.persistOKLocked(e)
	}
	c.mu.Unlock()
	if err == nil && e.wal != nil && !e.wal.Empty() {
		// The .gdag now carries the state; the log's records are spent.
		// A failed reset is tolerable: the stale records are at or below
		// the new base's LSN, so replay skips them.
		_ = e.wal.Reset()
	}
	return err
}

// saveWithRetry is store.SaveAtLSN with capped exponential backoff: a
// transient failure (ENOSPC racing a cleanup, a briefly stalled disk)
// retries up to c.saveRetries attempts before the checkpoint is
// declared failed. It returns the saved file's size.
func (c *Catalog) saveWithRetry(path string, g *goddag.Document, lsn uint64) (int64, error) {
	var err error
	delay := c.retryBase
	for attempt := 0; attempt < c.saveRetries; attempt++ {
		if attempt > 0 {
			c.sleep(delay)
			delay *= 2
			if delay > c.retryCap {
				delay = c.retryCap
			}
		}
		saveStart := time.Now()
		var size int64
		size, err = store.SaveAtLSN(c.fsys, path, g, lsn)
		c.met.save.Observe(time.Since(saveStart))
		if err == nil {
			return size, nil
		}
	}
	return 0, err
}

// persistFailLocked records one failed checkpoint: per-document and
// catalog-wide consecutive-failure streaks, degrading each to read-only
// at its threshold. Degradation is sticky — a disk that "recovers"
// after corrupting state needs an operator restart, not silent resume.
func (c *Catalog) persistFailLocked(e *entry) {
	c.saveFailures++
	e.persistFails++
	c.failStreak++
	if e.persistFails >= c.failThreshold {
		e.readOnly = true
	}
	if c.failStreak >= 2*c.failThreshold {
		c.readOnly = true
	}
}

func (c *Catalog) persistOKLocked(e *entry) {
	e.persistFails = 0
	c.failStreak = 0
}

// walPath is the write-ahead-log segment for id, next to its .gdag.
func (c *Catalog) walPath(id string) string { return filepath.Join(c.dir, id+".wal") }

// baseFile describes the source a document loaded from: the LSN it was
// checkpointed at (0 for anything but a checkpoint) and its size in
// bytes, the yardstick the log is checkpointed against.
type baseFile struct {
	lsn  uint64
	size int64
}

// recover replays the document's log onto the freshly loaded base
// inside the (singleflight) load. The first load opens the log, which
// repairs a torn tail; a reload after eviction re-reads the records
// through the open handle. Replay applies the records above the base's
// LSN (replay). A log a crash left non-empty is then converged: a
// checkpoint saves the recovered state and resets the log, or, when
// nothing applied, the spent log is just reset. If that checkpoint
// fails the document serves the recovered state with the log intact.
func (c *Catalog) recover(e *entry, doc *core.Document, base baseFile) (*core.Document, error) {
	first := e.wal == nil
	var recs []store.Record
	var err error
	if first {
		e.wal, recs, err = store.OpenWAL(c.fsys, c.walPath(e.id))
	} else if !e.wal.Empty() {
		recs, err = e.wal.Records()
	}
	if err != nil {
		// An unreadable log may hold committed edits; failing the load
		// is the conservative choice (and is negative-cached like any
		// load failure).
		return nil, fmt.Errorf("catalog: recover %q: %w", e.id, err)
	}
	lsn, applied := base.lsn, 0
	legacy := e.wal.Legacy()
	if legacy {
		doc, applied = replayV1(doc, recs)
	} else {
		doc, lsn, applied = replay(doc, recs, base.lsn)
	}
	c.mu.Lock()
	e.lsn, e.baseLSN, e.baseSize = lsn, base.lsn, base.size
	if first && len(recs) > 0 {
		c.recovered++
	}
	c.replayed += uint64(applied)
	e.replayed += uint64(applied)
	c.mu.Unlock()
	if !first || len(recs) == 0 {
		return doc, nil
	}
	if applied == 0 && !legacy {
		_ = e.wal.Reset() // every record is in the base already (or re-vetoed)
		return doc, nil
	}
	if err := c.checkpoint(e, doc); err != nil && legacy {
		// A version 1 log takes no appends, so until a checkpoint lands
		// the recovered state is held in memory alone.
		c.mu.Lock()
		e.dirty = true
		c.mu.Unlock()
	}
	return doc, nil
}

// replay applies, in order, the records whose LSN is above base and
// returns the resulting document, its LSN, and the number of records
// applied. Op batches re-apply through the transaction API; one that
// vetoes (a batch whose rewind failed after its original veto) is
// skipped, and its LSN is the next record's. Snapshots replace the
// document wholesale. Replay stops at a gap in the sequence: records
// past it were logged against a state the log cannot rebuild.
func replay(doc *core.Document, recs []store.Record, base uint64) (*core.Document, uint64, int) {
	lsn, applied := base, 0
	for _, r := range recs {
		if r.LSN <= lsn {
			continue // already in the base, or a re-vetoed LSN reused
		}
		if r.LSN != lsn+1 {
			break
		}
		if r.Kind == store.RecordSnapshot {
			nd, err := core.Load(bytes.NewReader(r.Payload))
			if err != nil {
				continue // checksummed but undecodable (format drift)
			}
			doc = nd
		} else if !applyLogged(doc, r.Payload) {
			continue
		}
		lsn = r.LSN
		applied++
	}
	return doc, lsn, applied
}

// replayV1 replays a version 1 segment, written before LSNs: each op
// batch applies only when the document's fingerprint matches the one it
// was logged against (a batch already in the saved base no longer
// matches), and snapshots replace the document.
func replayV1(doc *core.Document, recs []store.Record) (*core.Document, int) {
	applied := 0
	for _, r := range recs {
		switch r.Kind {
		case store.RecordSnapshot:
			nd, err := core.Load(bytes.NewReader(r.Payload))
			if err != nil {
				continue
			}
			doc = nd
			applied++
		case store.RecordOps:
			if store.Fingerprint(doc.GODDAG()) == r.Pre && applyLogged(doc, r.Payload) {
				applied++
			}
		}
	}
	return doc, applied
}

// applyLogged re-applies one logged op batch, reporting whether it
// committed (a deterministic re-veto means the original commit vetoed
// too).
func applyLogged(doc *core.Document, payload []byte) bool {
	var b editor.Batch
	if json.Unmarshal(payload, &b) != nil {
		return false
	}
	return doc.Edit().ApplyBatch(b.Ops) == nil
}

// Close checkpoints every document whose log holds records past its
// checkpoint (or whose last edit is not yet persisted), then closes the
// logs, so a reopened catalog replays nothing. It returns the first
// error. Call it once the catalog is no longer serving; a document
// that is not resident is loaded first.
func (c *Catalog) Close() error {
	var first error
	for _, id := range c.ids {
		if err := c.closeEntry(c.entries[id]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (c *Catalog) closeEntry(e *entry) error {
	_ = e.rw.Lock(context.Background()) // a background context never fails
	defer e.rw.Unlock()
	c.mu.Lock()
	need := e.dirty || (e.wal != nil && (e.lsn > e.baseLSN || !e.wal.Empty()))
	c.mu.Unlock()
	var err error
	if need {
		var doc *core.Document
		if doc, err = c.Get(e.id); err == nil {
			err = c.checkpoint(e, doc)
		}
	}
	if e.wal != nil {
		if cerr := e.wal.Close(); err == nil {
			err = cerr
		}
		e.wal = nil
	}
	return err
}
