package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cliutil"
	"repro/internal/corpus"
	"repro/internal/drivers"
	"repro/internal/store"
	"repro/internal/xpath"
	"repro/internal/xquery"
)

// e4Queries is the E4 axis catalog: the overlap-aware query set the
// benchmarks measure. The handler tests assert the server's text results
// for each are byte-identical to the cxquery pipeline's output.
var e4Queries = []string{
	"/page",
	"//line",
	"//w",
	"//s/w",
	"//s/descendant::w",
	"//dmg/overlapping::*",
	"//dmg/overlapping::w",
	"//res/following::w",
	"//res/preceding::w",
	"//line/covered::w",
	"//w/ancestor::*",
	"//w | //line",
	"count(//dmg/overlapping::w)",
}

// newFixture writes a corpus directory (one synthetic manuscript as
// .gdag and standoff .xml, plus the Figure 1 fragment as a distributed
// directory) and returns a server over it plus the standoff file path
// for independent CLI-pipeline comparison.
func newFixture(t testing.TB, words int, cfg Config) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	doc, err := corpus.Generate(corpus.DefaultConfig(words))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "ms.gdag"))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Encode(f, doc); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	so, err := drivers.EncodeStandoff(doc, drivers.EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	standoffPath := filepath.Join(dir, "standoff.xml")
	if err := os.WriteFile(standoffPath, so, 0o644); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, "fig1")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, src := range corpus.Fig1Sources() {
		if err := os.WriteFile(filepath.Join(sub, src.Hierarchy+".xml"), src.Data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Share cfg.Obs with the catalog when set, as cxserve does, so tests
	// can observe catalog series through the server's /metrics.
	cat, err := catalog.Open(dir, catalog.Options{Obs: cfg.Obs})
	if err != nil {
		t.Fatal(err)
	}
	return New(cat, cfg), standoffPath
}

func post(t testing.TB, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t testing.TB, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHealthz(t *testing.T) {
	s, _ := newFixture(t, 40, Config{})
	w := get(t, s.Handler(), "/healthz")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok"`) {
		t.Fatalf("healthz: %d %s", w.Code, w.Body.String())
	}
}

func TestDocsAndStats(t *testing.T) {
	s, _ := newFixture(t, 40, Config{})
	h := s.Handler()

	w := get(t, h, "/docs")
	if w.Code != http.StatusOK {
		t.Fatalf("/docs: %d %s", w.Code, w.Body.String())
	}
	var docs []catalog.DocStats
	if err := json.Unmarshal(w.Body.Bytes(), &docs); err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3 {
		t.Fatalf("/docs listed %d documents, want 3", len(docs))
	}

	// A cold doc reports not resident; ?load=1 loads it and adds counts.
	w = get(t, h, "/docs/ms")
	var dr DocResponse
	if err := json.Unmarshal(w.Body.Bytes(), &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Resident || dr.Elements != 0 {
		t.Fatalf("cold /docs/ms: %+v", dr)
	}
	w = get(t, h, "/docs/ms?load=1")
	if err := json.Unmarshal(w.Body.Bytes(), &dr); err != nil {
		t.Fatal(err)
	}
	if !dr.Resident || dr.Elements == 0 || len(dr.Hierarchies) == 0 || dr.Bytes <= 0 {
		t.Fatalf("loaded /docs/ms: %+v", dr)
	}

	w = get(t, h, "/docs/absent")
	if w.Code != http.StatusNotFound {
		t.Fatalf("/docs/absent: %d", w.Code)
	}

	w = get(t, h, "/stats")
	var st StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Catalog.Documents != 3 || st.Requests == 0 {
		t.Fatalf("/stats: %+v", st)
	}
}

func TestQueryJSON(t *testing.T) {
	s, standoffPath := newFixture(t, 120, Config{})
	h := s.Handler()

	// Reference: the same document through the CLI loading pipeline.
	ref, err := cliutil.Load("auto", []string{standoffPath})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range e4Queries {
		w := post(t, h, fmt.Sprintf(`{"doc":"standoff","query":%q}`, q))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", q, w.Code, w.Body.String())
		}
		var resp struct {
			Result ValueJSON `json:"result"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		v, err := ref.QueryValue(q)
		if err != nil {
			t.Fatal(err)
		}
		want := encodeValue(v, 10000)
		if resp.Result.Count != want.Count || resp.Result.Type != want.Type {
			t.Fatalf("%s: got %d %s nodes, want %d %s", q,
				resp.Result.Count, resp.Result.Type, want.Count, want.Type)
		}
		if len(resp.Result.Nodes) != len(want.Nodes) {
			t.Fatalf("%s: %d encoded nodes, want %d", q, len(resp.Result.Nodes), len(want.Nodes))
		}
		for i := range want.Nodes {
			if resp.Result.Nodes[i] != want.Nodes[i] {
				t.Fatalf("%s node %d: %+v != %+v", q, i, resp.Result.Nodes[i], want.Nodes[i])
			}
		}
	}
}

// TestQueryExplain exercises the explain flag: the JSON response must
// carry the plan for both streamed node-sets and planned scalars, and
// omit it when the flag is off.
func TestQueryExplain(t *testing.T) {
	s, _ := newFixture(t, 120, Config{})
	h := s.Handler()
	cases := []struct {
		query string
		want  string // substring of some plan line
	}{
		{"//w", "scan:"},
		{"//w[@n='5']", "pushdown:"},
		{"count(//w)", "count:"},
		{"not(//nosuch)", "exists"},
		{"//w/overlapping::dmg", "semi-join"},
		{"//w/ancestor::*", "materialize"},
	}
	for _, tc := range cases {
		w := post(t, h, fmt.Sprintf(`{"doc":"ms","query":%q,"explain":true}`, tc.query))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.query, w.Code, w.Body.String())
		}
		var resp QueryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Plan) == 0 {
			t.Fatalf("%s: no plan in explain response: %s", tc.query, w.Body.String())
		}
		found := false
		for _, line := range resp.Plan {
			if strings.Contains(line, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: plan %v lacks %q", tc.query, resp.Plan, tc.want)
		}
	}
	// Without the flag the plan key is absent.
	w := post(t, h, `{"doc":"ms","query":"//w"}`)
	if strings.Contains(w.Body.String(), `"plan"`) {
		t.Fatalf("plan leaked into non-explain response: %s", w.Body.String())
	}
}

// TestQueryTextMatchesCLI asserts the server's text format is
// byte-identical to the cxquery pipeline (cliutil.Load → compile → eval
// → cliutil.WriteValue) for the whole E4 query set, on both the standoff
// and binary-store source forms.
func TestQueryTextMatchesCLI(t *testing.T) {
	s, standoffPath := newFixture(t, 120, Config{})
	h := s.Handler()
	for _, docID := range []string{"standoff", "ms"} {
		// Load the reference document independently, exactly as cxquery
		// would: the standoff file for "standoff", the .gdag for "ms".
		path := standoffPath
		if docID == "ms" {
			path = filepath.Join(filepath.Dir(standoffPath), "ms.gdag")
		}
		ref, err := cliutil.Load("auto", []string{path})
		if err != nil {
			t.Fatal(err)
		}
		for _, qs := range e4Queries {
			q, err := xpath.Compile(qs)
			if err != nil {
				t.Fatal(err)
			}
			v, err := q.Eval(ref.GODDAG())
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			cliutil.WriteValue(&want, v, false, 0)

			w := post(t, h, fmt.Sprintf(`{"doc":%q,"query":%q,"format":"text"}`, docID, qs))
			if w.Code != http.StatusOK {
				t.Fatalf("%s on %s: %d %s", qs, docID, w.Code, w.Body.String())
			}
			if got := w.Body.String(); got != want.String() {
				t.Fatalf("%s on %s: server text differs from CLI output\nserver: %q\ncli:    %q",
					qs, docID, clipStr(got), clipStr(want.String()))
			}
		}
	}
}

func clipStr(s string) string {
	if len(s) > 300 {
		return s[:300] + "..."
	}
	return s
}

func TestQueryFLWOR(t *testing.T) {
	s, standoffPath := newFixture(t, 60, Config{})
	h := s.Handler()
	const fl = `for $d in //dmg return count($d/overlapping::w)`

	ref, err := cliutil.Load("auto", []string{standoffPath})
	if err != nil {
		t.Fatal(err)
	}
	fq, err := xquery.Compile(fl)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := fq.Eval(ref.GODDAG())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	cliutil.WriteFLWOR(&want, vals, false, 0)

	w := post(t, h, fmt.Sprintf(`{"doc":"standoff","flwor":%q,"format":"text"}`, fl))
	if w.Code != http.StatusOK {
		t.Fatalf("flwor: %d %s", w.Code, w.Body.String())
	}
	if w.Body.String() != want.String() {
		t.Fatalf("flwor text mismatch:\nserver: %q\ncli:    %q", w.Body.String(), want.String())
	}

	// JSON form: one result per tuple.
	w = post(t, h, fmt.Sprintf(`{"doc":"standoff","flwor":%q}`, fl))
	var resp struct {
		Results []ValueJSON `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(vals) {
		t.Fatalf("flwor json: %d results, want %d", len(resp.Results), len(vals))
	}
}

func TestQueryLimitTruncates(t *testing.T) {
	s, _ := newFixture(t, 120, Config{})
	w := post(t, s.Handler(), `{"doc":"ms","query":"//w","limit":5}`)
	var resp struct {
		Result ValueJSON `json:"result"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Nodes) != 5 || !resp.Result.Truncated || resp.Result.Count <= 5 {
		t.Fatalf("limit: %d nodes, truncated=%v, count=%d",
			len(resp.Result.Nodes), resp.Result.Truncated, resp.Result.Count)
	}
}

// TestLimitClampedToMaxResults asserts a client cannot raise the
// operator's result ceiling, only lower it.
func TestLimitClampedToMaxResults(t *testing.T) {
	s, _ := newFixture(t, 120, Config{MaxResults: 4})
	w := post(t, s.Handler(), `{"doc":"ms","query":"//w","limit":1000000}`)
	var resp struct {
		Result ValueJSON `json:"result"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Nodes) != 4 || !resp.Result.Truncated {
		t.Fatalf("limit clamp: %d nodes, truncated=%v", len(resp.Result.Nodes), resp.Result.Truncated)
	}
}

func TestDeleteEvictsDoc(t *testing.T) {
	s, _ := newFixture(t, 40, Config{})
	h := s.Handler()
	if w := post(t, h, `{"doc":"ms","query":"count(//w)"}`); w.Code != http.StatusOK {
		t.Fatalf("load: %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodDelete, "/docs/ms", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"evicted":true`) {
		t.Fatalf("DELETE /docs/ms: %d %s", w.Code, w.Body.String())
	}
	if d, _ := s.cat.Doc("ms"); d.Resident {
		t.Fatal("ms still resident after DELETE")
	}
	// Idempotent second delete reports nothing evicted.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodDelete, "/docs/ms", nil))
	if !strings.Contains(w.Body.String(), `"evicted":false`) {
		t.Fatalf("second DELETE: %s", w.Body.String())
	}
}

func TestQueryTextHonorsLimit(t *testing.T) {
	s, _ := newFixture(t, 120, Config{})
	w := post(t, s.Handler(), `{"doc":"ms","query":"//w","format":"text","limit":3}`)
	if w.Code != http.StatusOK {
		t.Fatalf("text limit: %d %s", w.Code, w.Body.String())
	}
	if lines := strings.Count(w.Body.String(), "\n"); lines != 3 {
		t.Fatalf("text limit printed %d lines, want 3", lines)
	}
}

// TestFLWORResponseCap checks the node budget applies across FLWOR
// tuples, not per tuple: one-node-per-tuple queries cannot bypass
// MaxResults.
func TestFLWORResponseCap(t *testing.T) {
	s, _ := newFixture(t, 120, Config{MaxResults: 5})
	w := post(t, s.Handler(), `{"doc":"ms","flwor":"for $w in //w return $w"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("flwor cap: %d %s", w.Code, w.Body.String())
	}
	var resp QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range resp.Results {
		total += len(r.Nodes)
	}
	if total > 5 || !resp.Truncated {
		t.Fatalf("flwor cap: %d nodes across %d tuples, truncated=%v",
			total, len(resp.Results), resp.Truncated)
	}
}

func TestQueryErrors(t *testing.T) {
	s, _ := newFixture(t, 40, Config{})
	h := s.Handler()
	cases := []struct {
		body string
		code int
	}{
		{`{`, http.StatusBadRequest},
		{`{"query":"//w"}`, http.StatusBadRequest},                             // missing doc
		{`{"doc":"ms"}`, http.StatusBadRequest},                                // no query
		{`{"doc":"ms","query":"//w","flwor":"for $x"}`, http.StatusBadRequest}, // both
		{`{"doc":"absent","query":"//w"}`, http.StatusNotFound},
		{`{"doc":"ms","query":"//w["}`, http.StatusBadRequest}, // parse error
		{`{"doc":"ms","query":"//w","format":"xml"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if w := post(t, h, c.body); w.Code != c.code {
			t.Errorf("%s: code %d, want %d (%s)", c.body, w.Code, c.code, w.Body.String())
		}
	}
	if w := get(t, h, "/query"); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: %d", w.Code)
	}
}

func TestQueryCacheSharedAndBounded(t *testing.T) {
	s, _ := newFixture(t, 40, Config{QueryCache: 2})
	h := s.Handler()
	for _, q := range []string{"//w", "//line", "//w", "//s", "//w"} {
		if w := post(t, h, fmt.Sprintf(`{"doc":"ms","query":%q}`, q)); w.Code != http.StatusOK {
			t.Fatalf("%s: %d", q, w.Code)
		}
	}
	cs := s.cache.stats()
	if cs.Size > 2 {
		t.Fatalf("cache size %d exceeds cap 2", cs.Size)
	}
	if cs.Hits == 0 || cs.Misses == 0 {
		t.Fatalf("cache stats: %+v", cs)
	}
}

// TestConcurrentMixedLoad fires mixed queries at mixed documents from
// many goroutines through the full handler stack. Run with -race in CI:
// it exercises the catalog singleflight, the shared compiled-query
// cache, and concurrent Eval on shared documents at once.
func TestConcurrentMixedLoad(t *testing.T) {
	s, _ := newFixture(t, 150, Config{QueryCache: 4})
	h := s.Handler()
	docs := []string{"ms", "standoff", "fig1"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := e4Queries[(g*5+i)%len(e4Queries)]
				d := docs[(g+i)%len(docs)]
				w := post(t, h, fmt.Sprintf(`{"doc":%q,"query":%q,"format":"count"}`, d, q))
				if w.Code != http.StatusOK {
					t.Errorf("%s on %s: %d %s", q, d, w.Code, w.Body.String())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.cat.Stats()
	if st.Loads != 3 {
		t.Fatalf("catalog loads = %d, want 3 (singleflight under concurrency)", st.Loads)
	}
}

// TestQueryResponseGrid holds every /query response shape against a
// reference: the E4 queries plus a scalar, an attribute set, an empty
// attribute set, a limit-truncated node set and FLWORs, each as json,
// text and count. JSON must decode to exactly the keys and values
// encoding/json gives the reference envelope (elapsed_us aside); text
// and count must equal the cxquery renderers' output byte for byte.
func TestQueryResponseGrid(t *testing.T) {
	s, standoffPath := newFixture(t, 120, Config{})
	h := s.Handler()
	ref, err := cliutil.Load("auto", []string{standoffPath})
	if err != nil {
		t.Fatal(err)
	}
	type gridCase struct {
		query, flwor string
		limit        int
	}
	var cases []gridCase
	for _, q := range append(e4Queries, "count(//w)", "//w/@n", "//w/@nonexistent", "string(//nosuch)") {
		cases = append(cases, gridCase{query: q})
	}
	cases = append(cases,
		gridCase{query: "//w", limit: 5},
		gridCase{query: "//dmg/overlapping::*", limit: 2}, // a semi-join stream: size unknown, drained to count
		gridCase{query: "//w/@n", limit: 5},
		gridCase{flwor: "for $d in //dmg return $d/overlapping::w"},
		gridCase{flwor: "for $d in //dmg return $d/overlapping::w", limit: 3},
		gridCase{flwor: "for $w in //w return $w/@n", limit: 4},
		gridCase{flwor: "for $d in //dmg return count($d/overlapping::w)"},
		gridCase{flwor: "for $d in //nosuch return $d"},
	)
	for _, c := range cases {
		limit := c.limit
		if limit == 0 {
			limit = 10000 // Config.MaxResults default
		}
		var want QueryResponse
		var text, count bytes.Buffer
		if c.flwor != "" {
			vals, err := xquery.MustCompile(c.flwor).Eval(ref.GODDAG())
			if err != nil {
				t.Fatal(err)
			}
			want = QueryResponse{Doc: "standoff", Query: c.flwor}
			want.Results, want.Truncated = encodeFLWOR(vals, limit)
			cliutil.WriteFLWOR(&text, vals, false, limit)
			cliutil.WriteFLWOR(&count, vals, true, 0)
		} else {
			v, err := xpath.MustCompile(c.query).Eval(ref.GODDAG())
			if err != nil {
				t.Fatal(err)
			}
			enc := encodeValue(v, limit)
			want = QueryResponse{Doc: "standoff", Query: c.query, Result: &enc}
			cliutil.WriteValue(&text, v, false, limit)
			cliutil.WriteValue(&count, v, true, 0)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		for _, format := range []string{"json", "text", "count"} {
			body, err := json.Marshal(QueryRequest{Doc: "standoff", Query: c.query, FLWOR: c.flwor, Limit: c.limit, Format: format})
			if err != nil {
				t.Fatal(err)
			}
			w := post(t, h, string(body))
			name := fmt.Sprintf("%s%s limit=%d %s", c.query, c.flwor, c.limit, format)
			if w.Code != http.StatusOK {
				t.Fatalf("%s: %d %s", name, w.Code, w.Body.String())
			}
			got := w.Body.String()
			switch format {
			case "json":
				var gotAny, wantAny map[string]any
				if err := json.Unmarshal(w.Body.Bytes(), &gotAny); err != nil {
					t.Fatalf("%s: %v\n%s", name, err, clipStr(got))
				}
				if us, ok := gotAny["elapsed_us"].(float64); !ok || us < 0 {
					t.Fatalf("%s: elapsed_us = %v", name, gotAny["elapsed_us"])
				}
				gotAny["elapsed_us"] = 0.0
				if err := json.Unmarshal(wantJSON, &wantAny); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotAny, wantAny) {
					t.Errorf("%s:\n  got:  %s\n  want: %s", name, clipStr(got), clipStr(string(wantJSON)))
				}
				if !strings.HasSuffix(got, "}\n") {
					t.Errorf("%s: response does not end in one newline: %q", name, got[max(0, len(got)-20):])
				}
			case "text":
				if got != text.String() {
					t.Errorf("%s:\n  server: %q\n  cli:    %q", name, clipStr(got), clipStr(text.String()))
				}
			case "count":
				if got != count.String() {
					t.Errorf("%s: server %q, cli %q", name, got, count.String())
				}
			}
		}
	}
}

// TestEmptyAttributeSetIsTyped: an attribute query that selects nothing
// answers as an empty attribute set, not as a node set.
func TestEmptyAttributeSetIsTyped(t *testing.T) {
	s, _ := newFixture(t, 40, Config{})
	w := post(t, s.Handler(), `{"doc":"ms","query":"//w/@nonexistent"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("%d %s", w.Code, w.Body.String())
	}
	var resp QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result == nil || resp.Result.Type != "attribute-set" || resp.Result.Count != 0 {
		t.Fatalf("empty attribute set answered as %s", w.Body.String())
	}
}
