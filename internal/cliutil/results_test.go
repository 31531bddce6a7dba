package cliutil

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/goddag"
	"repro/internal/xpath"
)

func fig1(t *testing.T) *core.Document {
	t.Helper()
	doc, err := core.Parse(corpus.Fig1Sources())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func decodeValue(t *testing.T, b []byte) ValueJSON {
	t.Helper()
	var out ValueJSON
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("invalid JSON %q: %v", b, err)
	}
	return out
}

func TestEncodeValueNodeSet(t *testing.T) {
	doc := fig1(t)
	v, err := doc.QueryValue("//w")
	if err != nil {
		t.Fatal(err)
	}
	enc := decodeValue(t, AppendValueJSON(nil, v, false, 0))
	if enc.Type != "node-set" || enc.Count != 6 || len(enc.Nodes) != 6 || enc.Truncated {
		t.Fatalf("AppendValueJSON: %+v", enc)
	}
	n := enc.Nodes[1] // "hwæt": multibyte, byte and rune spans diverge
	if n.Kind != "element" || n.Hierarchy != "words" || n.Tag != "w" {
		t.Fatalf("node: %+v", n)
	}
	if n.ByteSpan == n.RuneSpan {
		t.Fatalf("byte span %v should differ from rune span %v past a multibyte rune", n.ByteSpan, n.RuneSpan)
	}
	if n.Text != "hwæt" {
		t.Fatalf("text %q", n.Text)
	}

	limited := decodeValue(t, AppendValueJSON(nil, v, false, 2))
	if len(limited.Nodes) != 2 || !limited.Truncated || limited.Count != 6 {
		t.Fatalf("limited: %+v", limited)
	}
}

func TestEncodeValueScalar(t *testing.T) {
	doc := fig1(t)
	v, err := doc.QueryValue("count(//w)")
	if err != nil {
		t.Fatal(err)
	}
	enc := decodeValue(t, AppendValueJSON(nil, v, false, 0))
	if enc.Type != "number" || enc.Value != "6" || enc.Count != 1 {
		t.Fatalf("scalar: %+v", enc)
	}
}

// valueQueries covers every result type the value encoders distinguish:
// node sets (empty, and from materializing plans), attribute sets
// (empty too), and each scalar type, including the empty string.
var valueQueries = []string{
	"//w", "//nosuch", "//line/covered::w", "//w/ancestor::*", "//w/@n",
	"//w/@nonexistent", "count(//w)", "string(//w[2])", "string(//nosuch)",
	"//w = 'x'",
}

func evalAll(t *testing.T, doc *goddag.Document, queries []string) []xpath.Value {
	t.Helper()
	vals := make([]xpath.Value, len(queries))
	for i, q := range queries {
		v, err := xpath.MustCompile(q).Eval(doc)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		vals[i] = v
	}
	return vals
}

// TestAppendValueJSONMatchesStdlib checks the value encoder against
// encoding/json over the reference wire struct for every result type,
// limit and count mode: the two must decode to the same keys and
// values.
func TestAppendValueJSONMatchesStdlib(t *testing.T) {
	doc := streamGridDoc(t, 4, corpus.MultibyteVocabulary)
	for i, v := range evalAll(t, doc, valueQueries) {
		for _, limit := range []int{0, 1, 3} {
			for _, countOnly := range []bool{false, true} {
				ref := encodeValue(v, limit)
				if countOnly && v.IsNodeSet() {
					ref = ValueJSON{Type: ref.Type, Count: ref.Count}
				}
				got := AppendValueJSON(nil, v, countOnly, limit)
				want := stdlibJSON(t, ref)
				if !reflect.DeepEqual(decodeAny(t, got), decodeAny(t, []byte(want))) {
					t.Errorf("%s limit=%d count=%v:\n  got:  %.300s\n  want: %.300s",
						valueQueries[i], limit, countOnly, got, want)
				}
			}
		}
	}
}

// unsizedSource hides the size of a slice source and can fail after a
// number of nodes, like a semi-join stream hitting its deadline.
type unsizedSource struct {
	sliceSource
	failAt int // -1: never
}

var errPull = errors.New("pull failed")

func (s *unsizedSource) Size() int { return -1 }

func (s *unsizedSource) Next() (goddag.Node, error) {
	if s.i == s.failAt {
		return nil, errPull
	}
	return s.sliceSource.Next()
}

// TestAppendNodeSetJSONUnsized: when the source cannot tell its size,
// a limit-cut encode drains the rest to report the full count, and a
// pull error comes back unchanged whether it strikes while encoding or
// while draining.
func TestAppendNodeSetJSONUnsized(t *testing.T) {
	doc := streamGridDoc(t, 4, corpus.MultibyteVocabulary)
	v := evalAll(t, doc, []string{"//w"})[0]
	nodes := v.Nodes()
	for _, limit := range []int{0, 1, 5, len(nodes), len(nodes) + 1} {
		got, err := AppendNodeSetJSON(nil, &unsizedSource{sliceSource{ns: nodes}, -1}, limit)
		if err != nil {
			t.Fatal(err)
		}
		want := stdlibJSON(t, encodeValue(v, limit))
		if !reflect.DeepEqual(decodeAny(t, got), decodeAny(t, []byte(want))) {
			t.Errorf("limit=%d:\n  got:  %.300s\n  want: %.300s", limit, got, want)
		}
	}
	for _, failAt := range []int{0, 2, 7} {
		_, err := AppendNodeSetJSON(nil, &unsizedSource{sliceSource{ns: nodes}, failAt}, 5)
		if !errors.Is(err, errPull) {
			t.Errorf("failAt=%d: err = %v, want the source's error", failAt, err)
		}
	}
}

// encodeFLWOR is the reference cumulative node cap across FLWOR tuples.
func encodeFLWOR(vals []xpath.Value, limit int) ([]ValueJSON, bool) {
	out := []ValueJSON{}
	remaining, truncated := limit, false
	for _, v := range vals {
		if limit > 0 && remaining <= 0 {
			return out, true
		}
		enc := encodeValue(v, remaining)
		truncated = truncated || enc.Truncated
		if limit > 0 {
			remaining -= len(enc.Nodes) + len(enc.Attrs)
			if !v.IsNodeSet() {
				remaining-- // a scalar counts one, as a text line
			}
		}
		out = append(out, enc)
	}
	return out, truncated
}

// TestFLWORCapAcrossTuples checks the FLWOR encoders' shared budget: the
// JSON results equal the reference, and the text prints exactly one
// line per encoded item.
func TestFLWORCapAcrossTuples(t *testing.T) {
	doc := streamGridDoc(t, 4, corpus.MultibyteVocabulary)
	vals := evalAll(t, doc, []string{"//w[position() < 4]", "count(//w)", "//w/@n", "//nosuch", "//w[1]", "string(//w[2])"})
	for _, limit := range []int{0, 1, 3, 4, 5, 10, 100000} {
		got, truncated := AppendFLWORJSON(nil, vals, limit)
		ref, refTruncated := encodeFLWOR(vals, limit)
		want := stdlibJSON(t, ref)
		if truncated != refTruncated || !reflect.DeepEqual(decodeAny(t, got), decodeAny(t, []byte(want))) {
			t.Errorf("limit=%d: truncated=%v (want %v)\n  got:  %.300s\n  want: %.300s",
				limit, truncated, refTruncated, got, want)
		}
		var text bytes.Buffer
		WriteFLWOR(&text, vals, false, limit)
		lines := 0
		for _, r := range ref {
			lines += len(r.Nodes) + len(r.Attrs)
			if r.Type != "node-set" && r.Type != "attribute-set" {
				lines++ // a scalar prints one line
			}
		}
		if n := strings.Count(text.String(), "\n"); n != lines {
			t.Errorf("limit=%d: text printed %d lines, JSON encoded %d items", limit, n, lines)
		}
	}
	if got, _ := AppendFLWORJSON(nil, nil, 0); string(got) != "[]" {
		t.Errorf("no tuples: %s, want []", got)
	}
}

func TestWriteValueMatchesFormatNode(t *testing.T) {
	doc := streamGridDoc(t, 4, corpus.MultibyteVocabulary)
	for i, v := range evalAll(t, doc, valueQueries) {
		var want []string
		switch v.Kind() {
		case "node-set":
			for _, n := range v.Nodes() {
				want = append(want, formatNode(n)+"\n")
			}
		case "attribute-set":
			for _, a := range v.Attrs() {
				want = append(want, formatAttr(a)+"\n")
			}
		default:
			want = []string{v.String() + "\n"}
		}
		var buf bytes.Buffer
		WriteValue(&buf, v, false, 0)
		if got := strings.Join(want, ""); buf.String() != got {
			t.Errorf("%s:\n  got:  %.300q\n  want: %.300q", valueQueries[i], buf.String(), got)
		}

		buf.Reset()
		WriteValue(&buf, v, true, 0)
		wantCount := v.String()
		if v.IsNodeSet() {
			wantCount = fmt.Sprint(len(want))
		}
		if got := strings.TrimSuffix(buf.String(), "\n"); got != wantCount {
			t.Errorf("%s count mode: %q, want %q", valueQueries[i], got, wantCount)
		}
	}
}

// TestAttrLineOwnerSpanInRunes: an attribute line prints its owner's
// span in characters, like the owner's own node line, not in bytes.
func TestAttrLineOwnerSpanInRunes(t *testing.T) {
	doc := streamGridDoc(t, 4, corpus.MultibyteVocabulary)
	vals := evalAll(t, doc, []string{"//w[3]", "//w[3]/@n"})
	var node, attr bytes.Buffer
	WriteValue(&node, vals[0], false, 0)
	WriteValue(&attr, vals[1], false, 0)
	owner, _, _ := strings.Cut(node.String(), " ")
	if !strings.HasPrefix(attr.String(), owner+"/@n = ") {
		t.Fatalf("attribute line %q does not name its owner as the node line %q does", attr.String(), node.String())
	}
}
