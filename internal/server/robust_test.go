package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/corpus"
	"repro/internal/faultfs"
	"repro/internal/store"
)

func TestPanicRecoveryReturns500(t *testing.T) {
	s := New(nil, Config{})
	h := s.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/query", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", w.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("body = %q, want JSON error", w.Body.String())
	}
	if s.panics.Value() != 1 {
		t.Fatalf("panics = %d, want 1", s.panics.Value())
	}
}

func TestPanicRecoveryAfterResponseStarted(t *testing.T) {
	s := New(nil, Config{})
	h := s.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("partial"))
		panic("mid-body")
	}))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/query", nil))
	// The 200 is already on the wire; the middleware must not try to
	// rewrite it, only count and log.
	if w.Code != http.StatusOK || w.Body.String() != "partial" {
		t.Fatalf("response rewritten after start: %d %q", w.Code, w.Body.String())
	}
	if s.panics.Value() != 1 {
		t.Fatalf("panics = %d, want 1", s.panics.Value())
	}
}

func TestPanicRecoveryPassesAbortHandler(t *testing.T) {
	s := New(nil, Config{})
	h := s.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Fatal("ErrAbortHandler was swallowed; net/http needs it to abort the connection")
		}
		if s.panics.Value() != 0 {
			t.Error("deliberate abort counted as a panic")
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/query", nil))
}

func TestGateShedsExcessLoad(t *testing.T) {
	s := New(nil, Config{MaxInflight: 1})
	enter := make(chan struct{})
	release := make(chan struct{})
	h := s.gate(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/query" {
			enter <- struct{}{}
			<-release
		}
		w.WriteHeader(http.StatusOK)
	}))

	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/query", nil))
	}()
	<-enter // the slot is held

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/query", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("second request: status = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if s.shed.Value() != 1 {
		t.Errorf("shed = %d, want 1", s.shed.Value())
	}

	// Probes bypass the gate: a full server must stay observable.
	for _, path := range []string{"/healthz", "/stats"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Errorf("%s under full gate: status = %d, want 200", path, w.Code)
		}
	}

	close(release)
	<-done
	// The slot was returned; the next gated request is admitted.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/docs", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("after release: status = %d, want 200", w.Code)
	}
}

func TestGateUnlimited(t *testing.T) {
	s := New(nil, Config{MaxInflight: -1})
	if s.inflight != nil {
		t.Fatal("MaxInflight < 0 should disable the gate")
	}
}

// TestDegradedCatalogSurfaces drives the catalog read-only through the
// HTTP surface: a disk whose renames always fail degrades two documents
// (FailThreshold 1, so catalog-wide at 2) at their first checkpoints,
// after which writes answer 503, /healthz reports degraded, and /stats
// carries the flag — while queries keep serving.
func TestDegradedCatalogSurfaces(t *testing.T) {
	dir := t.TempDir()
	for _, id := range []string{"a", "b"} {
		doc, err := corpus.Generate(corpus.DefaultConfig(40))
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Save(filepath.Join(dir, id+".gdag"), doc); err != nil {
			t.Fatal(err)
		}
	}
	inj := faultfs.NewInjector(faultfs.OS)
	cat, err := catalog.Open(dir, catalog.Options{
		FS: inj, SaveRetries: 1, FailThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(cat, Config{})
	h := srv.Handler()

	// Every .gdag rename fails from here on; WAL appends still work, so
	// the edits themselves are durable and answered 200. Each edit
	// carries an attribute larger than the documents' files, so its log
	// record alone makes a checkpoint due — and that checkpoint fails.
	inj.SetHook(func(op faultfs.Op, path string) error {
		if op == faultfs.OpRename && strings.HasSuffix(path, ".gdag") {
			return errors.New("injected: disk full")
		}
		return nil
	})
	edit := `{"ops":[{"op":"insert-markup","hierarchy":"x","tag":"x","start":0,"end":1,` +
		`"attrs":{"note":"` + strings.Repeat("n", 64<<10) + `"}}]}`
	for _, id := range []string{"a", "b"} {
		if w := postPath(t, h, "/docs/"+id+"/edit", edit); w.Code != http.StatusOK {
			t.Fatalf("edit %s: status %d: %s", id, w.Code, w.Body.String())
		}
	}
	if !cat.ReadOnly() {
		t.Fatal("catalog did not degrade after 2 failed persists at threshold 1")
	}

	if w := postPath(t, h, "/docs/a/edit", edit); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("edit on degraded catalog: status %d, want 503", w.Code)
	} else if w.Header().Get("Retry-After") == "" {
		t.Error("read-only edit 503 missing Retry-After")
	}
	if w := postPath(t, h, "/docs/a/undo", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("undo on degraded catalog: status %d, want 503", w.Code)
	} else if w.Header().Get("Retry-After") == "" {
		t.Error("read-only undo 503 missing Retry-After")
	}

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var health map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "degraded" || health["readOnly"] != true {
		t.Fatalf("healthz = %s, want degraded+readOnly", w.Body.String())
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.ReadOnly || stats.Catalog.SaveFailures == 0 {
		t.Fatalf("stats = %+v, want readOnly with save failures", stats)
	}

	// Reads survive the degradation.
	if n := queryCount(t, h, "a", "//w"); n == "0" {
		t.Error("query on degraded catalog returned no results")
	}
}
