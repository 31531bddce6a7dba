package cliutil

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/goddag"
	"repro/internal/xpath"
)

// The wire structs and reference encoders in this file are the oracle
// the append encoders are checked against: JSON through encoding/json
// over these structs, text through fmt and strconv-style quoting. They
// double as decode schemas for the tests.

// SpanJSON is a half-open offset interval in a JSON result.
type SpanJSON struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// NodeJSON is the wire form of one result node.
type NodeJSON struct {
	Kind      string   `json:"kind"`
	Hierarchy string   `json:"hierarchy,omitempty"`
	Tag       string   `json:"tag,omitempty"`
	Leaf      int      `json:"leaf,omitempty"`
	ByteSpan  SpanJSON `json:"byteSpan"`
	RuneSpan  SpanJSON `json:"runeSpan"`
	Text      string   `json:"text"`
}

// AttrJSON is the wire form of one attribute-axis result.
type AttrJSON struct {
	Owner string `json:"owner"`
	Name  string `json:"name"`
	Value string `json:"value"`
}

// ValueJSON is the wire form of one query result value.
type ValueJSON struct {
	Type      string     `json:"type"`
	Count     int        `json:"count"`
	Nodes     []NodeJSON `json:"nodes,omitempty"`
	Attrs     []AttrJSON `json:"attrs,omitempty"`
	Value     string     `json:"value,omitempty"`
	Truncated bool       `json:"truncated,omitempty"`
}

// encodeNode is the reference wire form of n. Rune spans come from the
// content's index, not the encoders' cursors.
func encodeNode(n goddag.Node) NodeJSON {
	sp := n.Span()
	rs := n.Document().Content().RuneSpan(sp)
	out := NodeJSON{
		ByteSpan: SpanJSON{Start: sp.Start, End: sp.End},
		RuneSpan: SpanJSON{Start: rs.Start, End: rs.End},
		Text:     n.Text(),
	}
	switch v := n.(type) {
	case *goddag.Element:
		out.Kind, out.Hierarchy, out.Tag = "element", v.Hierarchy().Name(), v.Name()
	case goddag.Leaf:
		out.Kind, out.Leaf = "leaf", v.Index()
	default:
		out.Kind, out.Tag = "root", n.Document().RootTag()
	}
	return out
}

// encodeValue is the reference wire form of v under a node/attribute
// cap (limit <= 0: none).
func encodeValue(v xpath.Value, limit int) ValueJSON {
	out := ValueJSON{Type: v.Kind()}
	switch v.Kind() {
	case "node-set":
		nodes := v.Nodes()
		out.Count = len(nodes)
		if limit > 0 && len(nodes) > limit {
			nodes, out.Truncated = nodes[:limit], true
		}
		for _, n := range nodes {
			out.Nodes = append(out.Nodes, encodeNode(n))
		}
	case "attribute-set":
		attrs := v.Attrs()
		out.Count = len(attrs)
		if limit > 0 && len(attrs) > limit {
			attrs, out.Truncated = attrs[:limit], true
		}
		for _, a := range attrs {
			out.Attrs = append(out.Attrs, AttrJSON{Owner: a.Owner.Name(), Name: a.Name, Value: a.Value})
		}
	default:
		out.Count, out.Value = 1, v.String()
	}
	return out
}

// stdlibJSON marshals v the way the append encoders promise to:
// encoding/json with HTML escaping off, without the trailing newline.
func stdlibJSON(t testing.TB, v any) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return strings.TrimSuffix(buf.String(), "\n")
}

// decodeAny decodes JSON into generic maps and slices, so two encodings
// compare equal exactly when they carry the same keys and values,
// whatever their key order.
func decodeAny(t testing.TB, b []byte) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("invalid JSON %q: %v", b, err)
	}
	return v
}

func clip(s string) string {
	r := []rune(s)
	if len(r) > 60 {
		return string(r[:57]) + "..."
	}
	return s
}

// formatNode is the reference cxquery line of n.
func formatNode(n goddag.Node) string {
	content := n.Document().Content()
	switch v := n.(type) {
	case *goddag.Element:
		return fmt.Sprintf("%s:%s%v %q", v.Hierarchy().Name(), v.Name(), content.RuneSpan(v.Span()), clip(v.Text()))
	case goddag.Leaf:
		return fmt.Sprintf("leaf#%d%v %q", v.Index(), content.RuneSpan(v.Span()), clip(v.Text()))
	default:
		return fmt.Sprintf("root:%s %q", n.Document().RootTag(), clip(n.Text()))
	}
}

// formatAttr is the reference cxquery line of an attribute result.
func formatAttr(a xpath.AttrNode) string {
	o := a.Owner
	return fmt.Sprintf("%s:%s%v/@%s = %q", o.Hierarchy().Name(), o.Name(),
		o.Document().Content().RuneSpan(o.Span()), a.Name, a.Value)
}
