package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/corpus"
	"repro/internal/faultfs"
	"repro/internal/store"
)

// newEditFixture builds a server over a fresh corpus directory and also
// returns the catalog and directory, which the edit tests need for
// reload and persistence checks.
func newEditFixture(t testing.TB, words int, cfg Config) (*Server, *catalog.Catalog, string) {
	t.Helper()
	dir := t.TempDir()
	doc, err := corpus.Generate(corpus.DefaultConfig(words))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(filepath.Join(dir, "ms.gdag"), doc); err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Open(dir, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return New(cat, cfg), cat, dir
}

func postPath(t testing.TB, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// queryCount runs a count query and returns the numeric result text.
func queryCount(t testing.TB, h http.Handler, doc, query string) string {
	t.Helper()
	w := postPath(t, h, "/query", fmt.Sprintf(`{"doc":%q,"query":%q,"format":"count"}`, doc, query))
	if w.Code != http.StatusOK {
		t.Fatalf("query %s: status %d: %s", query, w.Code, w.Body.String())
	}
	return strings.TrimSpace(w.Body.String())
}

// firstWordSpan extracts the byte span of the first //w result at least
// 4 ASCII-safe bytes wide, giving the tests rune-safe offsets without
// touching document internals.
func firstWordSpan(t testing.TB, h http.Handler) (start, end int) {
	t.Helper()
	w := postPath(t, h, "/query", `{"doc":"ms","query":"//w","limit":50}`)
	if w.Code != http.StatusOK {
		t.Fatalf("//w: status %d: %s", w.Code, w.Body.String())
	}
	var resp QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result == nil {
		t.Fatal("//w returned no nodes")
	}
	for _, n := range resp.Result.Nodes {
		// Equal byte and rune widths mean every offset inside is a rune
		// boundary, so the veto test may split the span freely.
		byteW := n.ByteSpan.End - n.ByteSpan.Start
		runeW := n.RuneSpan.End - n.RuneSpan.Start
		if byteW >= 4 && byteW == runeW {
			return n.ByteSpan.Start, n.ByteSpan.End
		}
	}
	t.Fatal("no suitable //w span found")
	return 0, 0
}

// TestEditRoundTrip is the acceptance path: edit -> query reflects the
// change -> evict -> reload (replaying the logged edit) -> the shutdown
// checkpoint writes a store file that reproduces the edited document
// byte-identically.
func TestEditRoundTrip(t *testing.T) {
	srv, cat, dir := newEditFixture(t, 80, Config{})
	h := srv.Handler()
	lo, hi := firstWordSpan(t, h)

	if got := queryCount(t, h, "ms", "count(//note)"); got != "0" {
		t.Fatalf("pre-edit note count = %s", got)
	}
	body := fmt.Sprintf(`{"ops":[
		{"op":"insert-markup","hierarchy":"annot","tag":"note","start":%d,"end":%d,"attrs":{"resp":"ed","type":"gloss"}},
		{"op":"set-attr","hierarchy":"annot","index":0,"name":"status","value":"draft"},
		{"op":"remove-attr","hierarchy":"annot","index":0,"name":"type"}
	]}`, lo, hi)
	w := postPath(t, h, "/docs/ms/edit", body)
	if w.Code != http.StatusOK {
		t.Fatalf("edit: status %d: %s", w.Code, w.Body.String())
	}
	var resp EditResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Applied != 3 {
		t.Fatalf("applied = %d, want 3", resp.Applied)
	}

	// The edit is visible to queries immediately.
	if got := queryCount(t, h, "ms", "count(//note)"); got != "1" {
		t.Fatalf("post-edit note count = %s", got)
	}
	if got := queryCount(t, h, "ms", `count(//note[@status="draft"])`); got != "1" {
		t.Fatalf("post-edit attr query = %s", got)
	}
	if got := queryCount(t, h, "ms", `count(//note[@type])`); got != "0" {
		t.Fatalf("removed attribute still queryable: %s", got)
	}

	// Evict and reload: the base file plus the log must reproduce the
	// edited document. DELETE must succeed — the commit is durable in
	// the log.
	req := httptest.NewRequest(http.MethodDelete, "/docs/ms", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "true") {
		t.Fatalf("evict: status %d body %s", rec.Code, rec.Body.String())
	}
	if got := queryCount(t, h, "ms", "count(//note)"); got != "1" {
		t.Fatalf("reloaded note count = %s", got)
	}

	// Byte-identical persistence: after the shutdown checkpoint,
	// re-saving the reloaded document at the file's LSN must reproduce
	// the saved file exactly.
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(filepath.Join(dir, "ms.gdag"))
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := store.Decode(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	m, err := store.OpenMappedBytes(saved)
	if err != nil {
		t.Fatal(err)
	}
	if m.LSN() != 1 {
		t.Fatalf("checkpoint at LSN %d, want 1 (one committed batch)", m.LSN())
	}
	resaved := filepath.Join(t.TempDir(), "ms.gdag")
	if _, err := store.SaveAtLSN(faultfs.OS, resaved, reloaded, m.LSN()); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(resaved); err != nil || !bytes.Equal(again, saved) {
		t.Fatalf("saved file does not round-trip byte-identically (%v)", err)
	}
	if got := len(reloaded.ElementsNamed("note")); got != 1 {
		t.Fatalf("saved file holds %d note elements, want 1", got)
	}
}

func TestEditVetoIsAtomicAndStructured(t *testing.T) {
	srv, cat, _ := newEditFixture(t, 80, Config{})
	h := srv.Handler()
	lo, hi := firstWordSpan(t, h)
	if hi-lo < 3 {
		t.Skipf("first word too short (%d bytes)", hi-lo)
	}
	// Op 0 succeeds; op 1 properly overlaps it within the same hierarchy
	// and must veto the whole batch.
	body := fmt.Sprintf(`{"ops":[
		{"op":"insert-markup","hierarchy":"annot","tag":"note","start":%d,"end":%d},
		{"op":"insert-markup","hierarchy":"annot","tag":"note","start":%d,"end":%d}
	]}`, lo, hi-1, lo+1, hi)
	w := postPath(t, h, "/docs/ms/edit", body)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("veto status = %d: %s", w.Code, w.Body.String())
	}
	var resp EditErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Op != 1 {
		t.Fatalf("failing op = %d, want 1", resp.Op)
	}
	if len(resp.Violations) != 1 || resp.Violations[0].Code != "conflict" || resp.Violations[0].Hierarchy != "annot" {
		t.Fatalf("violations = %+v", resp.Violations)
	}
	// Atomic: op 0 must not have survived.
	if got := queryCount(t, h, "ms", "count(//note)"); got != "0" {
		t.Fatalf("vetoed batch left %s notes", got)
	}
	if ds, _ := cat.Doc("ms"); ds.Edits != 0 || ds.Dirty {
		t.Fatalf("vetoed batch counted: edits=%d dirty=%v", ds.Edits, ds.Dirty)
	}
}

func TestEditErrorsAndLimits(t *testing.T) {
	srv, _, _ := newEditFixture(t, 60, Config{MaxOps: 2})
	h := srv.Handler()
	cases := []struct {
		name, path, body string
		status           int
	}{
		{"empty batch", "/docs/ms/edit", `{"ops":[]}`, http.StatusBadRequest},
		{"bad json", "/docs/ms/edit", `{"ops":`, http.StatusBadRequest},
		{"too many ops", "/docs/ms/edit", `{"ops":[{"op":"set-attr"},{"op":"set-attr"},{"op":"set-attr"}]}`, http.StatusBadRequest},
		{"unknown op", "/docs/ms/edit", `{"ops":[{"op":"rename"}]}`, http.StatusUnprocessableEntity},
		{"unknown hierarchy", "/docs/ms/edit", `{"ops":[{"op":"remove-markup","hierarchy":"nope","index":0}]}`, http.StatusUnprocessableEntity},
		{"bad index", "/docs/ms/edit", `{"ops":[{"op":"remove-markup","hierarchy":"words","index":999999}]}`, http.StatusUnprocessableEntity},
		{"missing doc", "/docs/absent/edit", `{"ops":[{"op":"rename"}]}`, http.StatusNotFound},
		{"undo empty history", "/docs/ms/undo", ``, http.StatusConflict},
		{"redo empty history", "/docs/ms/redo", ``, http.StatusConflict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postPath(t, h, tc.path, tc.body)
			if w.Code != tc.status {
				t.Fatalf("status = %d, want %d: %s", w.Code, tc.status, w.Body.String())
			}
		})
	}
	// GET on an action path is rejected.
	if w := get(t, h, "/docs/ms/edit"); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET edit status = %d", w.Code)
	}
}

func TestEditReadOnly(t *testing.T) {
	srv, _, _ := newEditFixture(t, 60, Config{ReadOnly: true})
	h := srv.Handler()
	for _, path := range []string{"/docs/ms/edit", "/docs/ms/undo", "/docs/ms/redo"} {
		if w := postPath(t, h, path, `{"ops":[{"op":"rename"}]}`); w.Code != http.StatusForbidden {
			t.Fatalf("%s status = %d, want 403", path, w.Code)
		}
	}
	// Queries still work.
	if got := queryCount(t, h, "ms", "count(//w)"); got == "0" {
		t.Fatal("read-only server cannot query")
	}
}

func TestUndoRedoEndpoints(t *testing.T) {
	srv, _, dir := newEditFixture(t, 60, Config{})
	h := srv.Handler()
	lo, hi := firstWordSpan(t, h)
	body := fmt.Sprintf(`{"ops":[{"op":"insert-markup","hierarchy":"annot","tag":"note","start":%d,"end":%d}]}`, lo, hi)
	if w := postPath(t, h, "/docs/ms/edit", body); w.Code != http.StatusOK {
		t.Fatalf("edit: %d %s", w.Code, w.Body.String())
	}
	if got := queryCount(t, h, "ms", "count(//note)"); got != "1" {
		t.Fatalf("after edit: %s", got)
	}
	if w := postPath(t, h, "/docs/ms/undo", ""); w.Code != http.StatusOK {
		t.Fatalf("undo: %d %s", w.Code, w.Body.String())
	}
	if got := queryCount(t, h, "ms", "count(//note)"); got != "0" {
		t.Fatalf("after undo: %s", got)
	}
	// Undo is durable: a restart (replaying the log) has no note.
	restarted, err := catalog.Open(dir, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := restarted.Get("ms")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(doc.GODDAG().ElementsNamed("note")); got != 0 {
		t.Fatalf("undo not persisted: %d notes after a restart", got)
	}
	if w := postPath(t, h, "/docs/ms/redo", ""); w.Code != http.StatusOK {
		t.Fatalf("redo: %d %s", w.Code, w.Body.String())
	}
	if got := queryCount(t, h, "ms", "count(//note)"); got != "1" {
		t.Fatalf("after redo: %s", got)
	}
}

// TestConcurrentReadDuringEdit hammers the handler with parallel queries
// while edit batches land on the same document — the read-during-edit
// race test CI runs under -race. Readers must always see a consistent
// snapshot (every response 200) and writers must all commit.
func TestConcurrentReadDuringEdit(t *testing.T) {
	srv, _, _ := newEditFixture(t, 120, Config{})
	h := srv.Handler()
	lo, hi := firstWordSpan(t, h)

	const writers, readers, rounds = 2, 6, 15
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for wr := 0; wr < writers; wr++ {
		wr := wr
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				hier := fmt.Sprintf("annot%d", wr)
				body := fmt.Sprintf(`{"ops":[
					{"op":"insert-markup","hierarchy":%q,"tag":"note","start":%d,"end":%d},
					{"op":"set-attr","hierarchy":%q,"index":0,"name":"round","value":"%d"},
					{"op":"remove-markup","hierarchy":%q,"index":0}
				]}`, hier, lo, hi, hier, i, hier)
				w := postPath(t, h, "/docs/ms/edit", body)
				if w.Code != http.StatusOK {
					errs <- fmt.Errorf("writer %d round %d: %d %s", wr, i, w.Code, w.Body.String())
					return
				}
			}
		}()
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds*4; i++ {
				w := postPath(t, h, "/query", `{"doc":"ms","query":"//w/ancestor::*","format":"count"}`)
				if w.Code != http.StatusOK {
					errs <- fmt.Errorf("reader: %d %s", w.Code, w.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// All transient notes were removed again.
	if got := queryCount(t, h, "ms", "count(//note)"); got != "0" {
		t.Fatalf("leftover notes: %s", got)
	}
}

// TestSlowEditTraced sets a slow-query threshold every request crosses:
// edits, undos and redos are then traced like queries, and each enters
// /debug/requests with its write-path stage breakdown.
func TestSlowEditTraced(t *testing.T) {
	srv, _, _ := newEditFixture(t, 60, Config{SlowQuery: time.Nanosecond})
	h := srv.Handler()
	lo, hi := firstWordSpan(t, h)
	body := fmt.Sprintf(`{"ops":[{"op":"insert-markup","hierarchy":"annot","tag":"note","start":%d,"end":%d}]}`, lo, hi)
	for _, path := range []string{"/docs/ms/edit", "/docs/ms/undo", "/docs/ms/redo"} {
		if w := postPath(t, h, path, body); w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, w.Code, w.Body.String())
		}
	}
	var recs []RequestRecord
	if err := json.Unmarshal(get(t, h, "/debug/requests").Body.Bytes(), &recs); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"edit": true, "undo": true, "redo": true}
	for _, r := range recs {
		if !want[r.Query] {
			continue
		}
		delete(want, r.Query)
		if r.ID == "" || r.Status != http.StatusOK {
			t.Errorf("%s record: %+v", r.Query, r)
		}
		for _, stage := range []string{"lockWait=", "log=", "apply="} {
			if !strings.Contains(r.Stages, stage) {
				t.Errorf("%s record lacks %s: %q", r.Query, stage, r.Stages)
			}
		}
	}
	if len(want) != 0 {
		t.Fatalf("ring is missing %v: %+v", want, recs)
	}
}
