package cliutil

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/goddag"
	"repro/internal/xpath"
)

// This file renders whole query results — node sets, attribute sets and
// scalars — on top of the node appenders in stream.go, as JSON and as
// the cxquery text lines. cxserve and cxquery both render through it,
// so their output for the same document and query is identical.

// sliceSource feeds a materialized node slice through the same loop a
// lazy stream goes through.
type sliceSource struct {
	ns []goddag.Node
	i  int
}

func (s *sliceSource) Next() (goddag.Node, error) {
	if s.i >= len(s.ns) {
		return nil, nil
	}
	s.i++
	return s.ns[s.i-1], nil
}

func (s *sliceSource) Size() int { return len(s.ns) - s.i }

// slice returns the encoder's slice source, reset to ns.
func (e *NodeEncoder) slice(ns []goddag.Node) *sliceSource {
	if e.nodes == nil {
		e.nodes = new(sliceSource)
	}
	*e.nodes = sliceSource{ns: ns}
	return e.nodes
}

// AppendNodeSetJSON appends the JSON form of the node set src yields:
//
//	{"type":"node-set","nodes":[node, ...],"count":N,"truncated":true}
//
// with each node as AppendNodeJSON writes it. A limit > 0 caps the
// encoded nodes; when it cuts the set short, the rest of src is counted
// without being encoded (by Size when src knows it, else by draining),
// so count is always the full size, and truncated is set. "nodes" is
// omitted for an empty set, "truncated" when nothing was cut. A src
// error aborts the encode and is returned unchanged, with the bytes
// appended so far incomplete.
func AppendNodeSetJSON(dst []byte, src NodeSource, limit int) ([]byte, error) {
	var e NodeEncoder
	dst, _, err := e.appendNodeSetJSON(dst, src, limit)
	return dst, err
}

// appendNodeSetJSON is AppendNodeSetJSON returning the number of nodes
// it encoded as well.
func (e *NodeEncoder) appendNodeSetJSON(dst []byte, src NodeSource, limit int) ([]byte, int, error) {
	dst = append(dst, `{"type":"node-set"`...)
	total := src.Size() // -1 when unknown
	written := 0
	for limit <= 0 || written < limit {
		n, err := src.Next()
		if err != nil {
			return dst, written, err
		}
		if n == nil {
			total = written
			break
		}
		if written == 0 {
			dst = append(dst, `,"nodes":[`...)
		} else {
			dst = append(dst, ',')
		}
		dst = e.AppendNodeJSON(dst, n)
		written++
	}
	if total < 0 {
		// The limit stopped a stream of unknown size: count the rest.
		total = written
		for {
			n, err := src.Next()
			if err != nil {
				return dst, written, err
			}
			if n == nil {
				break
			}
			total++
		}
	}
	if written > 0 {
		dst = append(dst, ']')
	}
	dst = append(dst, `,"count":`...)
	dst = AppendUint(dst, int64(total))
	if written < total {
		dst = append(dst, `,"truncated":true`...)
	}
	return append(dst, '}'), written, nil
}

// AppendValueJSON appends the JSON form of a query result. The "type"
// is v.Kind(). Node sets are written as AppendNodeSetJSON writes them,
// attribute sets as
//
//	{"type":"attribute-set","count":N,"attrs":[{"owner":"w","name":"n","value":"3"}, ...],"truncated":true}
//
// and scalars as {"type":"number","count":1,"value":"6"}, with "value"
// (the XPath string form) omitted when empty. A limit > 0 caps the
// encoded nodes or attributes as in AppendNodeSetJSON. With countOnly,
// a node or attribute set is written as its type and count alone.
func AppendValueJSON(dst []byte, v xpath.Value, countOnly bool, limit int) []byte {
	var e NodeEncoder
	dst, _, _ = e.appendValueJSON(dst, v, countOnly, limit)
	return dst
}

// appendValueJSON is AppendValueJSON returning the number of items it
// encoded (nodes, attributes, or 1 for a scalar) and whether the limit
// cut the set short.
func (e *NodeEncoder) appendValueJSON(dst []byte, v xpath.Value, countOnly bool, limit int) ([]byte, int, bool) {
	if !v.IsNodeSet() {
		dst = appendTypeCount(dst, v.Kind(), 1)
		if s := v.String(); s != "" {
			dst = append(dst, `,"value":`...)
			dst = AppendJSONString(dst, s)
		}
		return append(dst, '}'), 1, false
	}
	if countOnly {
		dst = appendTypeCount(dst, v.Kind(), len(v.Nodes())+len(v.Attrs())) // one of the two is empty
		return append(dst, '}'), 0, false
	}
	if v.Kind() == "node-set" {
		dst, n, _ := e.appendNodeSetJSON(dst, e.slice(v.Nodes()), limit) // a slice never fails
		return dst, n, n < len(v.Nodes())
	}
	attrs := v.Attrs()
	dst = appendTypeCount(dst, "attribute-set", len(attrs))
	cut := limit > 0 && len(attrs) > limit
	if cut {
		attrs = attrs[:limit]
	}
	for i, a := range attrs {
		if i == 0 {
			dst = append(dst, `,"attrs":[`...)
		} else {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"owner":`...)
		dst = AppendJSONString(dst, a.Owner.Name())
		dst = append(dst, `,"name":`...)
		dst = AppendJSONString(dst, a.Name)
		dst = append(dst, `,"value":`...)
		dst = AppendJSONString(dst, a.Value)
		dst = append(dst, '}')
	}
	if len(attrs) > 0 {
		dst = append(dst, ']')
	}
	if cut {
		dst = append(dst, `,"truncated":true`...)
	}
	return append(dst, '}'), len(attrs), cut
}

// appendTypeCount opens a value object with its type and count.
func appendTypeCount(dst []byte, kind string, count int) []byte {
	dst = append(dst, `{"type":`...)
	dst = AppendJSONString(dst, kind)
	dst = append(dst, `,"count":`...)
	return AppendUint(dst, int64(count))
}

// AppendFLWORJSON appends FLWOR results as a JSON array, one
// AppendValueJSON element per tuple. A limit > 0 is a budget across
// all tuples: each tuple's nodes or attributes (a scalar counts one)
// draw it down, and once it is spent the remaining tuples are left out.
// The returned flag reports that the budget cut the results short,
// inside a tuple or by leaving tuples out.
func AppendFLWORJSON(dst []byte, vals []xpath.Value, limit int) ([]byte, bool) {
	var e NodeEncoder
	dst = append(dst, '[')
	remaining, truncated := limit, false
	for i, v := range vals {
		if limit > 0 && remaining <= 0 {
			truncated = true
			break
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		var n int
		var cut bool
		dst, n, cut = e.appendValueJSON(dst, v, false, remaining)
		truncated = truncated || cut
		if limit > 0 {
			remaining -= n
		}
	}
	return append(dst, ']'), truncated
}

// appendAttrText appends the cxquery line form of an attribute result,
//
//	hierarchy:tag[lo,hi)/@name = "value"
//
// with the owner's span in rune offsets, as on node lines.
func (e *NodeEncoder) appendAttrText(dst []byte, a xpath.AttrNode) []byte {
	o := a.Owner
	dst = append(dst, o.Hierarchy().Name()...)
	dst = append(dst, ':')
	dst = append(dst, o.Name()...)
	dst = e.appendRuneSpan(dst, o.Document().Content(), o.Span())
	dst = append(dst, "/@"...)
	dst = append(dst, a.Name...)
	dst = append(dst, " = "...)
	return strconv.AppendQuote(dst, a.Value)
}

// writeText writes v in the cxquery text format — node sets one
// AppendNodeText line per node, attribute sets one appendAttrText line
// per attribute, scalars their string value — and returns the number
// of lines written. A limit > 0 caps the node or attribute lines.
func (e *NodeEncoder) writeText(w io.Writer, v xpath.Value, limit int) (int, error) {
	switch v.Kind() {
	case "node-set":
		return e.writeNodesText(w, e.slice(v.Nodes()), limit)
	case "attribute-set":
		attrs := v.Attrs()
		if limit > 0 && len(attrs) > limit {
			attrs = attrs[:limit]
		}
		bp := scratchPool.Get().(*[]byte)
		defer scratchPool.Put(bp)
		for i, a := range attrs {
			buf := append(e.appendAttrText((*bp)[:0], a), '\n')
			*bp = buf[:0] // keep any growth for the next line
			if _, err := w.Write(buf); err != nil {
				return i, err
			}
		}
		return len(attrs), nil
	}
	_, err := fmt.Fprintln(w, v.String())
	return 1, err
}

// WriteValue writes a query result in the cxquery text format (see
// writeText). With countOnly, node and attribute sets print only their
// full size. A limit > 0 caps the printed node or attribute lines;
// limit <= 0 prints everything.
func WriteValue(w io.Writer, v xpath.Value, countOnly bool, limit int) {
	if countOnly && v.IsNodeSet() {
		fmt.Fprintln(w, len(v.Nodes())+len(v.Attrs())) // one of the two is empty
		return
	}
	var e NodeEncoder
	e.writeText(w, v, limit)
}

// WriteFLWOR writes FLWOR results in the cxquery text format, each
// tuple as WriteValue writes it. With countOnly only the tuple count
// prints. A limit > 0 caps the printed lines across all tuples, as
// AppendFLWORJSON caps its encoded items; limit <= 0 prints everything.
func WriteFLWOR(w io.Writer, vals []xpath.Value, countOnly bool, limit int) {
	if countOnly {
		fmt.Fprintln(w, len(vals))
		return
	}
	var e NodeEncoder
	remaining := limit
	for _, v := range vals {
		if limit > 0 && remaining <= 0 {
			return
		}
		n, err := e.writeText(w, v, remaining)
		if err != nil {
			return
		}
		if limit > 0 {
			remaining -= n
		}
	}
}
