package editor

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/corpus"
	"repro/internal/document"
	"repro/internal/faultfs"
	"repro/internal/goddag"
	"repro/internal/store"
	"repro/internal/validate"
)

// TestUndoRedoOnMappedDocument edits a document opened from a v3 file
// through a poisoned mapping: the first edit's undo snapshot (a Clone)
// materializes the document and releases the mapping, which then
// faults on any read. Undoing every edit must restore the file's
// document exactly, and redoing them must restore the edited one —
// without either ever reading the released pages.
func TestUndoRedoOnMappedDocument(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	cfg := corpus.DefaultConfig(200)
	cfg.Vocabulary = corpus.MultibyteVocabulary
	src, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.gdag")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.EncodeV3(f, src); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	inj := faultfs.NewInjector(faultfs.OS)
	inj.PoisonUnmaps()
	doc, _, err := store.OpenMappedDoc(inj, path)
	if err != nil {
		t.Fatal(err)
	}

	s := NewSession(doc, validate.NewSchema(), Options{})
	h := doc.Hierarchies()[0].Name()
	if _, err := s.InsertMarkup(h, "patch", document.NewSpan(0, doc.Content().Len()), goddag.Attr{Name: "k", Value: "þ"}); err != nil {
		t.Fatal(err)
	}
	if n := inj.Count(faultfs.OpUnmap); n != 1 {
		t.Fatalf("first edit released the mapping %d times, want 1", n)
	}
	els := s.Document().Hierarchy(h).Elements()
	if err := s.SetAttr(els[len(els)-1], "lemma", "hwæt"); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveMarkup(els[len(els)/2]); err != nil {
		t.Fatal(err)
	}
	edited := goddag.Dump(s.Document())

	runtime.GC()
	for s.CanUndo() {
		if err := s.Undo(); err != nil {
			t.Fatal(err)
		}
	}
	if goddag.Dump(s.Document()) != goddag.Dump(src) {
		t.Fatal("undoing every edit does not restore the file's document")
	}
	for s.CanRedo() {
		if err := s.Redo(); err != nil {
			t.Fatal(err)
		}
	}
	if goddag.Dump(s.Document()) != edited {
		t.Fatal("redoing every edit does not restore the edited document")
	}
	if err := s.Document().Check(); err != nil {
		t.Fatal(err)
	}
}
