package server

import (
	"repro/internal/goddag"
	"repro/internal/xpath"
)

// The /query response schema and a reference encoder for its results:
// the tests decode responses into these structs and compare them with
// what encoding/json makes of the reference.

// QueryResponse is the POST /query JSON envelope.
type QueryResponse struct {
	Doc       string      `json:"doc"`
	Query     string      `json:"query"`
	Result    *ValueJSON  `json:"result,omitempty"`    // XPath
	Results   []ValueJSON `json:"results,omitempty"`   // FLWOR, one per tuple
	Truncated bool        `json:"truncated,omitempty"` // FLWOR: the node cap left tuples out
	Plan      []string    `json:"plan,omitempty"`
	Trace     *TraceJSON  `json:"trace,omitempty"`
	ElapsedUS int64       `json:"elapsed_us"`
}

// StageJSON is one measured stage of a traced request.
type StageJSON struct {
	Name string `json:"name"`
	US   int64  `json:"us"`
}

// TraceJSON is the explain-analyze payload of a "trace": true request.
type TraceJSON struct {
	ID      string      `json:"id"`
	Stages  []StageJSON `json:"stages"`
	TotalUS int64       `json:"total_us"`
	Visited int64       `json:"visited,omitempty"`
}

// SpanJSON is a half-open offset interval.
type SpanJSON struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// NodeJSON is one result node.
type NodeJSON struct {
	Kind      string   `json:"kind"`
	Hierarchy string   `json:"hierarchy,omitempty"`
	Tag       string   `json:"tag,omitempty"`
	Leaf      int      `json:"leaf,omitempty"`
	ByteSpan  SpanJSON `json:"byteSpan"`
	RuneSpan  SpanJSON `json:"runeSpan"`
	Text      string   `json:"text"`
}

// AttrJSON is one attribute-axis result.
type AttrJSON struct {
	Owner string `json:"owner"`
	Name  string `json:"name"`
	Value string `json:"value"`
}

// ValueJSON is one result value.
type ValueJSON struct {
	Type      string     `json:"type"`
	Count     int        `json:"count"`
	Nodes     []NodeJSON `json:"nodes,omitempty"`
	Attrs     []AttrJSON `json:"attrs,omitempty"`
	Value     string     `json:"value,omitempty"`
	Truncated bool       `json:"truncated,omitempty"`
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
			sp := n.Span()
			rs := n.Document().Content().RuneSpan(sp)
			nj := NodeJSON{
				ByteSpan: SpanJSON{Start: sp.Start, End: sp.End},
				RuneSpan: SpanJSON{Start: rs.Start, End: rs.End},
				Text:     n.Text(),
			}
			switch e := n.(type) {
			case *goddag.Element:
				nj.Kind, nj.Hierarchy, nj.Tag = "element", e.Hierarchy().Name(), e.Name()
			case goddag.Leaf:
				nj.Kind, nj.Leaf = "leaf", e.Index()
			default:
				nj.Kind, nj.Tag = "root", n.Document().RootTag()
			}
			out.Nodes = append(out.Nodes, nj)
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

// encodeFLWOR is the reference FLWOR results under the cumulative node
// cap: each tuple's nodes or attributes (a scalar counts one) draw the
// cap down, and tuples past it are left out and flagged.
func encodeFLWOR(vals []xpath.Value, limit int) ([]ValueJSON, bool) {
	var out []ValueJSON
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
				remaining--
			}
		}
		out = append(out, enc)
	}
	return out, truncated
}
