package faultfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"
)

var errDisk = errors.New("injected: input/output error")

func TestTransparentWithoutHook(t *testing.T) {
	in := NewInjector(OS)
	path := filepath.Join(t.TempDir(), "f")
	f, err := in.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if in.Count(OpWrite) != 1 || in.Count(OpSync) != 1 || in.Count(OpClose) != 1 {
		t.Fatalf("counts: write=%d sync=%d close=%d", in.Count(OpWrite), in.Count(OpSync), in.Count(OpClose))
	}
}

func TestInjectedFailures(t *testing.T) {
	in := NewInjector(OS)
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	f, err := in.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	in.SetHook(func(op Op, p string) error {
		if op == OpSync {
			return errDisk
		}
		return nil
	})
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("write with sync-only hook: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, errDisk) {
		t.Fatalf("sync = %v, want injected", err)
	}

	in.SetHook(func(op Op, p string) error {
		if op == OpRename {
			return errDisk
		}
		return nil
	})
	if err := in.Rename(path, filepath.Join(dir, "g")); !errors.Is(err, errDisk) {
		t.Fatalf("rename = %v, want injected", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal("vetoed rename moved the file anyway")
	}
}

// TestTornWrite asserts a *Torn error leaves exactly the prefix on disk
// — the shape a power cut mid-append produces.
func TestTornWrite(t *testing.T) {
	in := NewInjector(OS)
	path := filepath.Join(t.TempDir(), "f")
	f, err := in.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	in.SetHook(func(op Op, p string) error {
		if op == OpWrite {
			return &Torn{N: 3, Err: errDisk}
		}
		return nil
	})
	n, err := f.Write([]byte("abcdef"))
	if n != 3 || !errors.Is(err, errDisk) {
		t.Fatalf("torn write: n=%d err=%v", n, err)
	}
	in.SetHook(nil)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "abc" {
		t.Fatalf("on-disk after torn write: %q, %v", got, err)
	}
}

func TestFailNth(t *testing.T) {
	isSync := func(op Op, _ string) bool { return op == OpSync }

	h := FailNth(2, false, isSync, errDisk)
	if err := h(OpWrite, "x"); err != nil {
		t.Fatal("non-matching op failed")
	}
	if err := h(OpSync, "x"); err != nil {
		t.Fatal("first sync failed")
	}
	if err := h(OpSync, "x"); !errors.Is(err, errDisk) {
		t.Fatal("second sync did not fail")
	}
	if err := h(OpSync, "x"); err != nil {
		t.Fatal("one-shot hook kept failing")
	}

	p := FailNth(1, true, isSync, errDisk)
	for i := 0; i < 3; i++ {
		if err := p(OpSync, "x"); !errors.Is(err, errDisk) {
			t.Fatalf("persistent hook call %d = %v", i, err)
		}
	}
}

var sink byte

// TestPoisonUnmaps: a released mapping must be unusable — a memory
// mapping faults (a panic under SetPanicOnFault), a heap-fallback
// buffer reads back as 0xA5 — and both stop counting as mapped.
func TestPoisonUnmaps(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("mapped bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	base := MappedBytes()
	for _, inner := range []FS{OS, struct{ FS }{OS}} {
		in := NewInjector(inner)
		in.PoisonUnmaps()
		m, err := Map(in, path)
		if err != nil {
			t.Fatal(err)
		}
		if MappedBytes() != base+int64(len(m.Data)) {
			t.Fatalf("mapped bytes %d, want %d", MappedBytes(), base+int64(len(m.Data)))
		}
		data := m.Data
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if MappedBytes() != base {
			t.Fatalf("mapped bytes %d after close, want %d", MappedBytes(), base)
		}
		func() {
			defer func() {
				if recover() == nil && m.mmap {
					t.Error("read of a poisoned memory mapping did not fault")
				}
			}()
			sink = data[0]
			if !m.mmap && sink != 0xA5 {
				t.Errorf("poisoned heap buffer reads %#x", sink)
			}
		}()
	}
}
