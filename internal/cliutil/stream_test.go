package cliutil

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/goddag"
	"repro/internal/xpath"
)

// jsonStringCases covers every escaping regime of encoding/json with
// HTML escaping off: plain ASCII, the two escaped printables, every
// control byte, multibyte text, the JSONP separators, and invalid
// UTF-8.
var jsonStringCases = []string{
	"", "plain ascii", `with "quotes" and \backslash\`,
	"tab\there\nnewline\rreturn", "\b\f\x00\x01\x1f\x7f",
	"hwæt wé gár-dena ĝeár-dagum", "多字节文本", "emoji 🙂 mixed",
	"line\u2028sep\u2029para", "<html> & 'unescaped'",
	"invalid \xff utf8 \xc3\x28 tail \xe2\x82", "trailing\xf0",
}

func TestAppendJSONStringMatchesStdlib(t *testing.T) {
	for _, s := range jsonStringCases {
		got := string(AppendJSONString(nil, s))
		want := stdlibJSON(t, s)
		if got != want {
			t.Errorf("AppendJSONString(%q):\n  got:  %s\n  want: %s", s, got, want)
		}
	}
}

// FuzzAppendJSONString checks the only JSON string producer of the
// result encoders byte for byte against encoding/json on arbitrary
// bytes, valid UTF-8 or not.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range jsonStringCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := string(AppendJSONString(nil, s)), stdlibJSON(t, s); got != want {
			t.Fatalf("AppendJSONString(%q):\n  got:  %s\n  want: %s", s, got, want)
		}
	})
}

// streamGridDoc builds one corpus configuration for encoder tests.
func streamGridDoc(t *testing.T, hierarchies int, vocab []string) *goddag.Document {
	t.Helper()
	cfg := corpus.DefaultConfig(120)
	cfg.Hierarchies = hierarchies
	cfg.OverlapDensity = 0.6
	cfg.Vocabulary = vocab
	doc, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// allNodes returns every node of the document (root, elements, leaves).
func allNodes(t *testing.T, doc *goddag.Document) []goddag.Node {
	t.Helper()
	ns, err := xpath.Select(doc, "//node()")
	if err != nil {
		t.Fatal(err)
	}
	return append([]goddag.Node{doc.Root()}, ns...)
}

// TestAppendNodeJSONMatchesEncodeNode checks the node JSON encoder byte
// for byte against encoding/json over the reference wire struct, across
// hierarchies and vocabularies (including multibyte text where byte and
// rune spans diverge).
func TestAppendNodeJSONMatchesEncodeNode(t *testing.T) {
	vocabs := map[string][]string{"default": nil, "multibyte": corpus.MultibyteVocabulary}
	for vn, vocab := range vocabs {
		for _, h := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/h=%d", vn, h), func(t *testing.T) {
				doc := streamGridDoc(t, h, vocab)
				var e NodeEncoder
				for _, n := range allNodes(t, doc) {
					want := stdlibJSON(t, encodeNode(n))
					got := string(e.AppendNodeJSON(nil, n))
					if got != want {
						t.Fatalf("node %v:\n  got:  %s\n  want: %s", n, got, want)
					}
				}
			})
		}
	}
}

// TestAppendNodeTextMatchesFormatNode checks the text line encoder
// against the fmt-based reference line format.
func TestAppendNodeTextMatchesFormatNode(t *testing.T) {
	vocabs := map[string][]string{"default": nil, "multibyte": corpus.MultibyteVocabulary}
	for vn, vocab := range vocabs {
		t.Run(vn, func(t *testing.T) {
			doc := streamGridDoc(t, 4, vocab)
			var e NodeEncoder
			for _, n := range allNodes(t, doc) {
				if got, want := string(e.AppendNodeText(nil, n)), formatNode(n); got != want {
					t.Fatalf("node %v:\n  got:  %s\n  want: %s", n, got, want)
				}
			}
		})
	}
}

func TestAppendClippedQuote(t *testing.T) {
	cases := []string{
		"", "short", strings.Repeat("x", 60), strings.Repeat("x", 61),
		strings.Repeat("日", 57), strings.Repeat("日", 61), strings.Repeat("日", 200),
		"quote\"and\\slash " + strings.Repeat("héllo ", 30),
	}
	for _, s := range cases {
		got := string(appendClippedQuote(nil, s))
		want := strconv.Quote(clip(s))
		if got != want {
			t.Errorf("appendClippedQuote(%d runes):\n  got:  %s\n  want: %s", len([]rune(s)), got, want)
		}
	}
}

func TestWriteNodesTextMatchesWriteValue(t *testing.T) {
	doc := streamGridDoc(t, 4, corpus.MultibyteVocabulary)
	v, err := xpath.MustCompile("//w").Eval(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 1, 5, 100000} {
		var want, got bytes.Buffer
		WriteValue(&want, v, false, limit)
		n, err := WriteNodesText(&got, &sliceSource{ns: v.Nodes()}, limit)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("limit=%d: streaming text differs from WriteValue", limit)
		}
		wantN := len(v.Nodes())
		if limit > 0 && limit < wantN {
			wantN = limit
		}
		if n != wantN {
			t.Fatalf("limit=%d: wrote %d nodes, want %d", limit, n, wantN)
		}
	}
}

// TestAppendUint pins the fast integer appender to strconv across digit
// counts and pair boundaries.
func TestAppendUint(t *testing.T) {
	cases := []int64{0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 12345,
		99999, 100000, 285938, 1<<31 - 1, 1e15, 1<<63 - 1}
	for _, v := range cases {
		got := string(AppendUint(nil, v))
		want := strconv.FormatInt(v, 10)
		if got != want {
			t.Errorf("AppendUint(%d) = %q, want %q", v, got, want)
		}
	}
}
