package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"repro/internal/catalog"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/goddag"
	"repro/internal/server"
	"repro/internal/xpath"
	"repro/internal/xquery"
)

type queryClass int

const (
	pointQuery queryClass = iota // answer size does not grow with the document
	scanQuery                    // answer is a node set proportional to the document
)

// readQuery is one query of the read mix. Its class is fixed by the
// query text, never by the data.
type readQuery struct {
	name   string
	class  queryClass
	xpath  string
	flwor  string
	format string // json, text or count, as in a POST /query body
}

// readMix is the read traffic of the query workloads. readBlock draws
// each point query three times and each scan query twice per block of
// 18 reads, so there are two point reads per scan read.
var readMix = []readQuery{
	{name: "count_w", class: pointQuery, xpath: "count(//w)", format: "json"},
	{name: "dmg_overlapping_w", class: pointQuery, xpath: "//dmg/overlapping::w", format: "json"},
	{name: "w7_covering", class: pointQuery, xpath: "//w[7]/covering::*", format: "json"},
	{name: "s_w_count", class: pointQuery, xpath: "//s/w", format: "count"},
	{name: "w_json", class: scanQuery, xpath: "//w", format: "json"},
	{name: "line_covered_w_text", class: scanQuery, xpath: "//line/covered::w", format: "text"},
	{name: "flwor_dmg_overlapping_w", class: scanQuery, flwor: "for $d in //dmg return $d/overlapping::w", format: "json"},
}

var readBlock = func() []int {
	var b []int
	for qi, q := range readMix {
		n := 2
		if q.class == pointQuery {
			n = 3
		}
		for k := 0; k < n; k++ {
			b = append(b, qi)
		}
	}
	return b
}()

// compiled holds the read mix compiled once, as the server's query cache
// does: compiled queries keep no evaluation state.
type compiled struct {
	xp []*xpath.Query
	fl []*xquery.Query
}

func compileMix() (*compiled, error) {
	c := &compiled{xp: make([]*xpath.Query, len(readMix)), fl: make([]*xquery.Query, len(readMix))}
	for i, q := range readMix {
		var err error
		if q.flwor != "" {
			c.fl[i], err = xquery.Compile(q.flwor)
		} else {
			c.xp[i], err = xpath.Compile(q.xpath)
		}
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", q.name, err)
		}
	}
	return c, nil
}

// answer is what one (document, query) pair must return.
type answer struct {
	Nodes  int    // node-set size; for FLWOR, nodes over all tuples
	Tuples int    // FLWOR tuples
	Scalar string // scalar result in XPath string form ("" for node sets)
}

// answersFor evaluates the read mix against a document with the plain
// evaluation API. Given a heap-built copy it is the reference the served
// responses are checked against; given a mapped document it touches
// what the mix touches.
func (c *compiled) answersFor(g *goddag.Document) ([]answer, error) {
	out := make([]answer, len(readMix))
	for i := range readMix {
		if c.fl[i] != nil {
			vals, err := c.fl[i].Eval(g)
			if err != nil {
				return nil, err
			}
			out[i].Tuples = len(vals)
			for _, v := range vals {
				out[i].Nodes += len(v.Nodes())
			}
			continue
		}
		v, err := c.xp[i].Eval(g)
		if err != nil {
			return nil, err
		}
		if v.IsNodeSet() {
			out[i].Nodes = len(v.Nodes())
		} else {
			out[i].Scalar = v.String()
		}
	}
	return out, nil
}

// readOp is one read of the pre-generated sequence.
type readOp struct {
	Doc int `json:"d"`
	Q   int `json:"q"`
}

// readSequence draws n reads: queries in shuffled blocks of readBlock,
// documents from pick.
func readSequence(rng *rand.Rand, n int, pick func() int) []readOp {
	ops := make([]readOp, 0, n)
	block := append([]int(nil), readBlock...)
	for len(ops) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, q := range block {
			if len(ops) == n {
				break
			}
			ops = append(ops, readOp{Doc: pick(), Q: q})
		}
	}
	return ops
}

// queryBody is the POST /query body for doc and query q.
func queryBody(doc string, q readQuery) []byte {
	b, _ := json.Marshal(server.QueryRequest{Doc: doc, Query: q.xpath, FLWOR: q.flwor, Format: q.format})
	return b
}

// respWriter is a reusable in-process http.ResponseWriter.
type respWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.h }

func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(p)
}

func (w *respWriter) reset() {
	for k := range w.h {
		delete(w.h, k)
	}
	w.code = 0
	w.body.Reset()
}

// httpClient sends requests to a handler in-process: no sockets, so
// the numbers measure the program and not loopback TCP. One request
// value is reused, its body reset per call, so the client itself
// allocates nothing per request.
type httpClient struct {
	h    http.Handler
	req  *http.Request
	body bytes.Reader
	w    respWriter
}

func newHTTPClient(h http.Handler) *httpClient {
	c := &httpClient{h: h, w: respWriter{h: make(http.Header)}}
	c.req, _ = http.NewRequest(http.MethodPost, "/", nil)
	return c
}

// do sends one POST and returns the status; the response body stays in
// c.w.body until the next call.
func (c *httpClient) do(path string, body []byte) int {
	c.w.reset()
	c.body.Reset(body)
	c.req.URL.Path = path
	c.req.Body = io.NopCloser(&c.body)
	c.req.ContentLength = int64(len(body))
	c.h.ServeHTTP(&c.w, c.req)
	return c.w.code
}

var (
	countKey  = []byte(`"count":`)
	valueKey  = []byte(`"value":`)
	nodeSetKV = []byte(`"type":"node-set"`)
)

// checkResponse reports whether a /query response carries the expected
// answer. It looks only at the counts, so it costs little next to the
// request: the JSON envelope's count (the last "count" key; node texts
// are quoted and cannot contain one), the scalar value, the text
// format's line count, or the count format's number.
func checkResponse(q readQuery, code int, body []byte, want answer) bool {
	if code != http.StatusOK {
		return false
	}
	switch {
	case q.flwor != "":
		if bytes.Count(body, nodeSetKV) != want.Tuples {
			return false
		}
		total := 0
		for rest := body; ; {
			i := bytes.Index(rest, countKey)
			if i < 0 {
				break
			}
			rest = rest[i+len(countKey):]
			n, ok := leadingInt(rest)
			if !ok {
				return false
			}
			total += n
		}
		return total == want.Nodes
	case q.format == "count":
		n, err := strconv.Atoi(string(bytes.TrimSpace(body)))
		return err == nil && n == want.Nodes
	case q.format == "text":
		return bytes.Count(body, []byte{'\n'}) == want.Nodes
	case want.Scalar != "":
		i := bytes.LastIndex(body, valueKey)
		return i >= 0 && bytes.HasPrefix(body[i+len(valueKey):], []byte(strconv.Quote(want.Scalar)))
	default:
		i := bytes.LastIndex(body, countKey)
		if i < 0 {
			return false
		}
		n, ok := leadingInt(body[i+len(countKey):])
		return ok && n == want.Nodes
	}
}

func leadingInt(b []byte) (int, bool) {
	n, digits := 0, 0
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
		digits++
	}
	return n, digits > 0
}

// layered is the traced run's read client: it makes, one by one, the
// calls the /query handler makes, with a span around each —
// catalog.GetContext, catalog.ViewContext up to callback entry, the
// query's StreamContext or EvalContext, the drain, and the cliutil
// encoders. Spans are buffered per client and handed to the recorder
// when the client finishes. A read's root span carries its result count
// and its encode span the encoded bytes.
type layered struct {
	cat   *catalog.Catalog
	comp  *compiled
	rec   *recorder
	spans []span
	nodes []goddag.Node
	buf   []byte
	enc   cliutil.NodeEncoder

	materialized int64 // resident bytes the reads materialized
}

func (l *layered) span(parent uint64, name string, t0, t1 time.Time, n int64) {
	l.spans = append(l.spans, span{ID: l.rec.newID(), Parent: parent, Name: name,
		Start: l.rec.offset(t0), Dur: int64(t1.Sub(t0)), N: n})
}

// read performs one traced read of query qi on document id and reports
// whether the result matches want. total is the read's whole duration.
func (l *layered) read(id string, qi int, want answer) (ok bool, total time.Duration) {
	q := readMix[qi]
	ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
	defer cancel()
	root := l.rec.newID()
	t0 := time.Now()
	_, err := l.cat.GetContext(ctx, id)
	t1 := time.Now()
	l.span(root, "catalog.get", t0, t1, 0)
	if err != nil {
		return false, t1.Sub(t0)
	}

	var results int
	tView := time.Now()
	err = l.cat.ViewContext(ctx, id, func(d *core.Document) error {
		tIn := time.Now()
		l.span(root, "catalog.view_wait", tView, tIn, 0)
		g := d.GODDAG()
		// Footprints are read under the view's read lock: an edit may
		// replace the document's structure outside it.
		if before, mapped := g.ResidentFootprint(); mapped {
			defer func() {
				if after, still := g.ResidentFootprint(); still && after > before {
					l.materialized += after - before
				}
			}()
		}
		l.buf = l.buf[:0]
		if l.comp.fl[qi] != nil {
			vals, err := l.comp.fl[qi].EvalContext(ctx, g, xpath.Budget{})
			t2 := time.Now()
			l.span(root, "xquery.eval", tIn, t2, 0)
			if err != nil {
				return err
			}
			tuples := len(vals)
			for _, v := range vals {
				for _, n := range v.Nodes() {
					l.buf = l.enc.AppendNodeJSON(l.buf, n)
					results++
				}
			}
			t3 := time.Now()
			l.span(root, "cliutil.encode", t2, t3, int64(len(l.buf)))
			ok = tuples == want.Tuples && results == want.Nodes
			return nil
		}
		st, err := l.comp.xp[qi].StreamContext(ctx, g, xpath.Budget{})
		t2 := time.Now()
		l.span(root, "xpath.plan", tIn, t2, 0)
		if err != nil {
			return err
		}
		defer st.Close()
		if v, scalar := st.Value(); scalar {
			t3 := time.Now()
			l.span(root, "xpath.eval", t2, t3, 0)
			l.buf = append(l.buf, v.String()...)
			l.span(root, "cliutil.encode", t3, time.Now(), int64(len(l.buf)))
			ok = v.String() == want.Scalar
			return nil
		}
		if q.format == "count" {
			n, err := st.Count()
			t3 := time.Now()
			l.span(root, "xpath.eval", t2, t3, int64(n))
			if err != nil {
				return err
			}
			l.buf = cliutil.AppendUint(l.buf, int64(n))
			l.span(root, "cliutil.encode", t3, time.Now(), int64(len(l.buf)))
			results, ok = n, n == want.Nodes
			return nil
		}
		l.nodes = l.nodes[:0]
		for {
			n, err := st.Next()
			if err != nil {
				return err
			}
			if n == nil {
				break
			}
			l.nodes = append(l.nodes, n)
		}
		t3 := time.Now()
		l.span(root, "xpath.eval", t2, t3, int64(len(l.nodes)))
		for _, n := range l.nodes {
			if q.format == "text" {
				l.buf = l.enc.AppendNodeText(l.buf, n)
				l.buf = append(l.buf, '\n')
			} else {
				l.buf = l.enc.AppendNodeJSON(l.buf, n)
			}
		}
		l.span(root, "cliutil.encode", t3, time.Now(), int64(len(l.buf)))
		results, ok = len(l.nodes), len(l.nodes) == want.Nodes
		return nil
	})
	end := time.Now()
	if err != nil {
		ok = false
	}
	l.spans = append(l.spans, span{ID: root, Name: "read." + q.name,
		Start: l.rec.offset(t0), Dur: int64(end.Sub(t0)), N: int64(results)})
	return ok, end.Sub(t0)
}
