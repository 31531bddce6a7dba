package catalog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/document"
	"repro/internal/editor"
	"repro/internal/faultfs"
	"repro/internal/store"
)

// writePlainDir builds a catalog directory holding one tiny ASCII
// document ("swa hwaet swa"), so edit-op byte offsets need no rune
// alignment.
func writePlainDir(t testing.TB, ids ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, id := range ids {
		src := `<r><w>swa</w> <w>hwaet</w> <w>swa</w></r>`
		if err := os.WriteFile(filepath.Join(dir, id+".xml"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// fastOpts keeps retry backoffs out of test wall-clock.
func fastOpts(fsys faultfs.FS) Options {
	return Options{FS: fsys, SaveRetries: 1, RetryBase: time.Millisecond}
}

// crashAt returns a hook that injects first at the first operation
// matching trigger, then fails every subsequent operation — the disk is
// gone, as a power cut at that exact point would leave it.
func crashAt(trigger func(faultfs.Op, string) bool, first error) faultfs.Hook {
	var mu sync.Mutex
	tripped := false
	return func(op faultfs.Op, path string) error {
		mu.Lock()
		defer mu.Unlock()
		if tripped {
			return errors.New("injected: disk gone after crash point")
		}
		if !trigger(op, path) {
			return nil
		}
		tripped = true
		return first
	}
}

func isWAL(path string) bool  { return strings.HasSuffix(path, ".wal") }
func isTemp(path string) bool { return strings.Contains(filepath.Base(path), ".gdag-tmp-") }

// TestCrashMatrix kills the write path at every durability-relevant
// fault point and asserts that reopening the directory recovers exactly
// the committed state: batch1 (committed cleanly) is always present,
// batch2 is present or absent per the fault point's documented
// semantics, and never partially applied (and, where its record
// outlived the checkpoint that holds it, never applied twice). The
// wal-append-* points hit
// batch2's commit itself (a failed append falls back to a checkpoint,
// which the dead disk fails too); the save-* and wal-reset-truncate
// points hit the checkpoint Close drives after batch2 committed.
func TestCrashMatrix(t *testing.T) {
	errFault := errors.New("injected: EIO")
	cases := []struct {
		name    string
		trigger func(faultfs.Op, string) bool
		fault   error // error injected at the trigger point
		wantErr bool  // UpdateBatch reports a failure
		ckpt    bool  // the fault fires in the checkpoint Close drives
		ckptErr bool  // Close reports the failed checkpoint
		want2   bool  // batch2 present after recovery
	}{
		{
			// Crash before anything of batch2 reached the log: the edit
			// is rejected and recovery sees only batch1.
			name:    "wal-append-write",
			trigger: func(op faultfs.Op, p string) bool { return op == faultfs.OpWrite && isWAL(p) },
			fault:   errFault, wantErr: true, want2: false,
		},
		{
			// Power cut tearing the append mid-frame: the torn tail is
			// truncated at reopen, batch2 is gone.
			name:    "wal-append-torn",
			trigger: func(op faultfs.Op, p string) bool { return op == faultfs.OpWrite && isWAL(p) },
			fault:   &faultfs.Torn{N: 7, Err: errFault}, wantErr: true, want2: false,
		},
		{
			// The frame was written whole but its fsync failed and the
			// crash prevented the rewind: an indeterminate append. The
			// caller saw an error, but the complete checksummed frame
			// survived, so recovery applies it — the documented
			// at-least-once outcome. Full application or none; never a
			// partial batch.
			name:    "wal-append-sync",
			trigger: func(op faultfs.Op, p string) bool { return op == faultfs.OpSync && isWAL(p) },
			fault:   errFault, wantErr: true, want2: true,
		},
		{
			// The log record fsynced — the commit point — so the edit
			// must survive no matter what the checkpoint does.
			name:    "save-temp-write",
			trigger: func(op faultfs.Op, p string) bool { return op == faultfs.OpWrite && isTemp(p) },
			fault:   errFault, ckpt: true, ckptErr: true, want2: true,
		},
		{
			name:    "save-temp-sync",
			trigger: func(op faultfs.Op, p string) bool { return op == faultfs.OpSync && isTemp(p) },
			fault:   errFault, ckpt: true, ckptErr: true, want2: true,
		},
		{
			name: "save-rename",
			trigger: func(op faultfs.Op, p string) bool {
				return op == faultfs.OpRename && strings.HasSuffix(p, ".gdag")
			},
			fault: errFault, ckpt: true, ckptErr: true, want2: true,
		},
		{
			// The checkpoint's rename landed but its directory sync
			// failed: the .gdag already holds batch2 AND its log record
			// remains. The checkpoint's LSN must keep replay
			// from applying them a second time.
			name: "save-dir-sync",
			trigger: func(op faultfs.Op, p string) bool {
				return op == faultfs.OpSync && !isWAL(p) && !isTemp(p)
			},
			fault: errFault, ckpt: true, ckptErr: true, want2: true,
		},
		{
			// Checkpoint fully succeeded, crash during the log reset:
			// stale record in the WAL, batch2 already in the .gdag — the
			// double-apply window the LSN closes. (Close still errs: the
			// dead disk fails the log's close.)
			name:    "wal-reset-truncate",
			trigger: func(op faultfs.Op, p string) bool { return op == faultfs.OpTruncate && isWAL(p) },
			fault:   errFault, ckpt: true, ckptErr: true, want2: true,
		},
	}

	batch1 := []editor.Op{{Op: "insert-markup", Hierarchy: "edits", Tag: "edit", Start: 0, End: 3}}
	batch2 := []editor.Op{
		{Op: "insert-markup", Hierarchy: "edits", Tag: "edit", Start: 4, End: 9},
		{Op: "set-attr", Hierarchy: "edits", Index: 1, Name: "status", Value: "committed"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := writePlainDir(t, "plain")
			inj := faultfs.NewInjector(faultfs.OS)
			c, err := Open(dir, fastOpts(inj))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.UpdateBatch("plain", batch1, nil); err != nil {
				t.Fatal(err)
			}

			if tc.ckpt {
				if err := c.UpdateBatch("plain", batch2, nil); err != nil {
					t.Fatal(err)
				}
				// batch1's record outgrew the tiny XML source, so it was
				// checkpointed; batch2 waits in the log for Close.
				if ds, _ := c.Doc("plain"); ds.Pending != 1 {
					t.Fatalf("%d commits past the checkpoint before Close, want 1", ds.Pending)
				}
				inj.SetHook(crashAt(tc.trigger, tc.fault))
				if err := c.Close(); (err != nil) != tc.ckptErr {
					t.Fatalf("Close under %s: err=%v, wantErr=%v", tc.name, err, tc.ckptErr)
				}
			} else {
				inj.SetHook(crashAt(tc.trigger, tc.fault))
				err = c.UpdateBatch("plain", batch2, nil)
				if (err != nil) != tc.wantErr {
					t.Fatalf("UpdateBatch under %s: err=%v, wantErr=%v", tc.name, err, tc.wantErr)
				}
			}

			// Crash: the in-memory catalog dies with the process. Reopen
			// the directory on a healthy disk.
			c2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			doc, err := c2.Get("plain")
			if err != nil {
				t.Fatal(err)
			}
			edits := doc.GODDAG().ElementsNamed("edit")
			want := 1
			if tc.want2 {
				want = 2
			}
			if len(edits) != want {
				t.Fatalf("recovered %d edit elements, want %d", len(edits), want)
			}
			// No partial application: if batch2 survived, both its ops did.
			if tc.want2 {
				var attrs int
				for _, el := range edits {
					if v, ok := el.Attr("status"); ok && v == "committed" {
						attrs++
					}
				}
				if attrs != 1 {
					t.Fatalf("batch2 partially applied: %d elements carry its attr, want 1", attrs)
				}
			}
			// Recovered state must itself be durable: the log is spent and
			// a second reopen replays nothing.
			c3, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			doc3, err := c3.Get("plain")
			if err != nil {
				t.Fatal(err)
			}
			if got := len(doc3.GODDAG().ElementsNamed("edit")); got != want {
				t.Fatalf("second reopen has %d edit elements, want %d (recovery not idempotent)", got, want)
			}
			if s := c3.Stats(); s.Replayed != 0 {
				t.Fatalf("second reopen replayed %d records; recovery did not converge", s.Replayed)
			}
		})
	}
}

// TestVetoedBatchNotReplayed leaves a vetoed batch's record in the WAL
// (the rewind is made to fail) and asserts replay re-vetoes it rather
// than resurrecting the rejected edit.
func TestVetoedBatchNotReplayed(t *testing.T) {
	dir := writePlainDir(t, "plain")
	inj := faultfs.NewInjector(faultfs.OS)
	c, err := Open(dir, fastOpts(inj))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateBatch("plain", []editor.Op{
		{Op: "insert-markup", Hierarchy: "edits", Tag: "edit", Start: 0, End: 3},
	}, nil); err != nil {
		t.Fatal(err)
	}
	// Fail the rewind so the vetoed batch's record stays logged.
	errFault := errors.New("injected: EIO")
	inj.SetHook(func(op faultfs.Op, p string) error {
		if op == faultfs.OpTruncate && isWAL(p) {
			return errFault
		}
		return nil
	})
	err = c.UpdateBatch("plain", []editor.Op{
		{Op: "insert-markup", Hierarchy: "edits", Tag: "edit", Start: 4, End: 9},
		{Op: "set-attr", Hierarchy: "edits", Index: 42, Name: "k", Value: "v"}, // out of range: vetoes
	}, nil)
	var be *editor.BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("veto = %v", err)
	}
	inj.SetHook(nil)

	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := c2.Get("plain")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(doc.GODDAG().ElementsNamed("edit")); got != 1 {
		t.Fatalf("replay resurrected a vetoed batch: %d edit elements, want 1", got)
	}
}

// TestPersistentFaultDegradesToReadOnly drives commits against a disk
// whose saves always fail, checkpointing every commit: every commit
// stays durable through the WAL, but after FailThreshold consecutive
// failed checkpoints the document — and after twice that, the catalog —
// degrades to read-only instead of wedging.
func TestPersistentFaultDegradesToReadOnly(t *testing.T) {
	dir := writePlainDir(t, "a", "b")
	inj := faultfs.NewInjector(faultfs.OS)
	c, err := Open(dir, fastOpts(inj))
	if err != nil {
		t.Fatal(err)
	}
	c.ckptRecords = 1
	errDisk := errors.New("injected: ENOSPC")
	inj.SetHook(func(op faultfs.Op, p string) error {
		if op == faultfs.OpRename && strings.HasSuffix(p, ".gdag") {
			return errDisk
		}
		return nil
	})

	batch := func(i int) []editor.Op {
		return []editor.Op{{Op: "insert-markup", Hierarchy: "edits", Tag: "edit", Start: 4 * i, End: 4*i + 3}}
	}
	// Three commits on "a": each is WAL-durable (nil error) while its
	// checkpoint fails behind the scenes; the third trips the document.
	for i := 0; i < 3; i++ {
		if err := c.UpdateBatch("a", batch(i), nil); err != nil {
			t.Fatalf("commit %d: %v (WAL-durable commits must succeed)", i, err)
		}
	}
	if err := c.UpdateBatch("a", batch(3), nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("4th update on degraded doc = %v, want ErrReadOnly", err)
	}
	// Degraded, but not dirty: all three edits are in the log.
	ds, _ := c.Doc("a")
	if !ds.ReadOnly || ds.Dirty || ds.Pending != 3 {
		t.Fatalf("degraded doc stats: %+v", ds)
	}
	if c.ReadOnly() {
		t.Fatal("catalog degraded after one document's failures")
	}

	// Three more on "b": the catalog-wide streak reaches 2x the
	// threshold and the whole catalog degrades.
	for i := 0; i < 3; i++ {
		if err := c.UpdateBatch("b", batch(i), nil); err != nil {
			t.Fatalf("commit b/%d: %v", i, err)
		}
	}
	if !c.ReadOnly() {
		t.Fatal("catalog not read-only after 6 consecutive persist failures")
	}
	if s := c.Stats(); !s.ReadOnly || s.SaveFailures != 6 {
		t.Fatalf("stats: read_only=%v save_failures=%d", s.ReadOnly, s.SaveFailures)
	}
	if err := c.UpdateBatch("b", batch(3), nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("update on read-only catalog = %v", err)
	}
	// Reads keep working throughout.
	if err := c.View("a", func(doc *core.Document) error {
		if got := len(doc.GODDAG().ElementsNamed("edit")); got != 3 {
			return fmt.Errorf("view sees %d edits, want 3", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// The edits were never checkpointed — but every one is in the WAL,
	// so a restart on a healed disk recovers all of them.
	inj.SetHook(nil)
	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string]int{"a": 3, "b": 3} {
		doc, err := c2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(doc.GODDAG().ElementsNamed("edit")); got != want {
			t.Fatalf("%s recovered %d edits, want %d", id, got, want)
		}
	}
	if c2.ReadOnly() {
		t.Fatal("degradation leaked across restart")
	}
}

// TestNegativeCacheTTLAndBackoff pins the catalog clock and walks a
// broken source through failure caching, exponential backoff, and
// recovery without a manual Evict.
func TestNegativeCacheTTLAndBackoff(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(src, []byte("<r>unclosed"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir, Options{NegCacheTTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var loads atomic.Int32
	c.onLoad = func(string) { loads.Add(1) }
	now := time.Unix(1_000_000, 0)
	c.now = func() time.Time { return now }

	mustFail := func(wantLoads int32) {
		t.Helper()
		if _, err := c.Get("doc"); err == nil {
			t.Fatal("broken source loaded")
		}
		if got := loads.Load(); got != wantLoads {
			t.Fatalf("loads = %d, want %d", got, wantLoads)
		}
	}
	mustFail(1)
	mustFail(1) // within TTL: served from the negative cache
	now = now.Add(500 * time.Millisecond)
	mustFail(1)
	now = now.Add(600 * time.Millisecond) // 1.1s: TTL expired, retried
	mustFail(2)
	now = now.Add(1500 * time.Millisecond) // second failure backs off 2x: still cached
	mustFail(2)

	// Fix the source; the next expiry heals the entry with no Evict.
	if err := os.WriteFile(src, []byte("<r><w>ok</w></r>"), 0o644); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Second) // 2.5s after second failure: past the 2s backoff
	doc, err := c.Get("doc")
	if err != nil {
		t.Fatalf("healed source still failing: %v", err)
	}
	if loads.Load() != 3 || doc == nil {
		t.Fatalf("loads = %d after heal", loads.Load())
	}
	// Success resets the backoff state.
	if ds, _ := c.Doc("doc"); ds.Error != "" {
		t.Fatalf("healed entry still caches error %q", ds.Error)
	}
}

// BenchmarkRecovery measures open-time WAL replay against log length:
// the recovery-time-vs-log-length curve documented in PERFORMANCE.md.
func BenchmarkRecovery(b *testing.B) {
	for _, n := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			// Build a corpus document and a WAL of n committed-but-unsaved
			// batches by blocking every save.
			master := b.TempDir()
			cfg := corpus.DefaultConfig(2000)
			doc, err := corpus.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			f, err := os.Create(filepath.Join(master, "ms.gdag"))
			if err != nil {
				b.Fatal(err)
			}
			if err := store.Encode(f, doc); err != nil {
				b.Fatal(err)
			}
			f.Close()

			inj := faultfs.NewInjector(faultfs.OS)
			// The setup catalog eats n failed saves on purpose; keep it
			// from degrading to read-only partway through.
			opts := fastOpts(inj)
			opts.FailThreshold = 1 << 20
			c, err := Open(master, opts)
			if err != nil {
				b.Fatal(err)
			}
			loaded, err := c.Get("ms")
			if err != nil {
				b.Fatal(err)
			}
			cn := loaded.GODDAG().Content()
			errDisk := errors.New("injected: EIO")
			inj.SetHook(func(op faultfs.Op, p string) error {
				if op == faultfs.OpRename && strings.HasSuffix(p, ".gdag") {
					return errDisk
				}
				return nil
			})
			for i := 0; i < n; i++ {
				sp := cn.ByteSpan(document.NewSpan(4*i, 4*i+3))
				ops := []editor.Op{{Op: "insert-markup", Hierarchy: "edits", Tag: "edit", Start: sp.Start, End: sp.End}}
				if err := c.UpdateBatch("ms", ops, nil); err != nil {
					b.Fatal(err)
				}
			}
			gdag, err := os.ReadFile(filepath.Join(master, "ms.gdag"))
			if err != nil {
				b.Fatal(err)
			}
			wal, err := os.ReadFile(filepath.Join(master, "ms.wal"))
			if err != nil {
				b.Fatal(err)
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				if err := os.WriteFile(filepath.Join(dir, "ms.gdag"), gdag, 0o644); err != nil {
					b.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, "ms.wal"), wal, 0o644); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rc, err := Open(dir, Options{}) // eager recovery replays the log
				if err != nil {
					b.Fatal(err)
				}
				if s := rc.Stats(); s.Replayed != uint64(n) {
					b.Fatalf("replayed %d records, want %d", s.Replayed, n)
				}
			}
		})
	}
}
