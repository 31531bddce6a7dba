package store

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/faultfs"
	"repro/internal/goddag"
)

// panicOnFault turns a fault on a poisoned (PROT_NONE) mapping into a
// panic of the test goroutine for the rest of the test.
func panicOnFault(t testing.TB) {
	prev := debug.SetPanicOnFault(true)
	t.Cleanup(func() { debug.SetPanicOnFault(prev) })
}

// noMapper hides the OS mmap from an Injector, so its mappings take the
// heap-fallback read.
type noMapper struct{ faultfs.FS }

// openPoisoned writes a v3 image to a file and opens its document
// through an injector that poisons every released mapping: a memory
// mapping (mmap true) goes PROT_NONE, a heap-fallback buffer is
// overwritten. Any read of the file's bytes after the document has
// materialized then faults or reads garbage.
func openPoisoned(t *testing.T, image []byte, mmap bool) *goddag.Document {
	t.Helper()
	panicOnFault(t)
	path := filepath.Join(t.TempDir(), "doc.gdag")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	var inner faultfs.FS = faultfs.OS
	if !mmap {
		inner = noMapper{faultfs.OS}
	}
	inj := faultfs.NewInjector(inner)
	inj.PoisonUnmaps()
	doc, _, err := OpenMappedDoc(inj, path)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// settle collects until every unreachable mapping's backstop finalizer
// has run, or gives up after a second.
func settle() {
	for i := 0; i < 100 && MappedBytes() != 0; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	runtime.GC()
}

func writeV3File(t *testing.T, words int) string {
	t.Helper()
	doc, err := corpus.Generate(corpus.DefaultConfig(words))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.gdag")
	if err := os.WriteFile(path, encodeV3Bytes(t, doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMaterializedDocumentsLeakNothing opens, touches, and drops 200
// mapped documents: each mapping must be released when its document
// materializes, and the documents must be collectable — no mapped
// bytes and no heap may stay behind once they are unreachable.
func TestMaterializedDocumentsLeakNothing(t *testing.T) {
	path := writeV3File(t, 1000)
	settle()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 200; i++ {
		doc, _, err := OpenMappedDoc(faultfs.OS, path)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(doc.ElementsNamed("w")); n == 0 {
			t.Fatal("touch found no w elements")
		}
		if got := MappedBytes(); got != 0 {
			t.Fatalf("open %d: %d bytes still mapped after materialization", i, got)
		}
	}
	settle()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if got := MappedBytes(); got != 0 {
		t.Fatalf("%d bytes still mapped after the documents were dropped", got)
	}
	if grew := int64(after.HeapInuse) - int64(before.HeapInuse); grew > 4<<20 {
		t.Fatalf("heap in use grew %d bytes over 200 dropped documents", grew)
	}
}

// TestUntouchedMappingIsFinalized drops a document that was opened but
// never touched: the mapping's backstop finalizer must unmap it.
func TestUntouchedMappingIsFinalized(t *testing.T) {
	path := writeV3File(t, 200)
	settle()
	inj := faultfs.NewInjector(faultfs.OS)
	func() {
		doc, m, err := OpenMappedDoc(inj, path)
		if err != nil {
			t.Fatal(err)
		}
		if MappedBytes() != int64(m.Size()) || doc.Content().Len() == 0 {
			t.Fatalf("open: %d bytes mapped, file is %d", MappedBytes(), m.Size())
		}
	}()
	settle()
	if got := MappedBytes(); got != 0 {
		t.Fatalf("%d bytes still mapped after the untouched document was dropped", got)
	}
	if n := inj.Count(faultfs.OpUnmap); n != 1 {
		t.Fatalf("finalizer unmapped %d times, want 1", n)
	}
}

// TestTouchAfterClose closes the mapping before the document's first
// structural touch: the touch must park a clean ViewErr and present an
// empty structure, never read the released pages.
func TestTouchAfterClose(t *testing.T) {
	path := writeV3File(t, 200)
	inj := faultfs.NewInjector(faultfs.OS)
	inj.PoisonUnmaps()
	panicOnFault(t)

	doc, m, err := OpenMappedDoc(inj, path)
	if err != nil {
		t.Fatal(err)
	}
	content := doc.Content().String()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Size() == 0 {
		t.Error("Size lost after Close")
	}
	if n := len(doc.Elements()); n != 0 {
		t.Fatalf("closed mapping materialized %d elements", n)
	}
	if err := doc.ViewErr(); !errors.Is(err, errClosed) {
		t.Fatalf("ViewErr = %v, want %v", err, errClosed)
	}
	if doc.Content().String() != content {
		t.Fatal("content changed after Close")
	}

	// A handle closed before Document() reports the same error.
	m2, err := OpenMappedFile(inj, path)
	if err != nil {
		t.Fatal(err)
	}
	m2.Close()
	if _, err := m2.Document(); !errors.Is(err, errClosed) {
		t.Fatalf("Document after Close = %v, want %v", err, errClosed)
	}
	if got := MappedBytes(); got != 0 {
		t.Fatalf("%d bytes still mapped after Close", got)
	}
}

// TestCloseRacesFirstTouch closes the mapping while several goroutines
// touch the document for the first time: each outcome must be whole —
// fully materialized, or empty with the early close parked — and no
// goroutine may read the released pages.
func TestCloseRacesFirstTouch(t *testing.T) {
	path := writeV3File(t, 200)
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := len(openV3(t, image).Elements())
	inj := faultfs.NewInjector(faultfs.OS)
	inj.PoisonUnmaps()
	for i := 0; i < 20; i++ {
		doc, m, err := OpenMappedDoc(inj, path)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]int, 4)
		var wg sync.WaitGroup
		for g := range seen {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
				if g == 0 {
					m.Close()
					return
				}
				seen[g] = len(doc.Elements())
			}(g)
		}
		wg.Wait()
		n, verr := len(doc.Elements()), doc.ViewErr()
		if !(verr == nil && n == want) && !(errors.Is(verr, errClosed) && n == 0) {
			t.Fatalf("round %d: %d elements with ViewErr %v (want %d, or 0 and %v)", i, n, verr, want, errClosed)
		}
		for g, got := range seen[1:] {
			if got != n {
				t.Fatalf("round %d: goroutine %d saw %d elements, settled document has %d", i, g+1, got, n)
			}
		}
	}
}
