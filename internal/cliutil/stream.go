package cliutil

import (
	"io"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/document"
	"repro/internal/goddag"
)

// This file holds the append-style encoders every query result goes
// through on its way to bytes: each writes one node (or string, or
// integer) at a time into a caller-supplied byte slice, so arbitrarily
// large node sets encode with a small constant amount of scratch memory
// and no intermediate structures. The tests in this package check the
// JSON against encoding/json (SetEscapeHTML false) over wire structs of
// their own, and the text against strconv.Quote and fmt.

// NodeSource is the pull contract the stream encoders consume: Next
// returns nodes in document order and (nil, nil) at the end; Size
// reports the exact remaining count or -1 when unknown. xpath.Stream
// satisfies it. A Next error aborts the encode and propagates to the
// caller unchanged — that is how evaluation cancellation (a context
// deadline or an exhausted xpath.Budget mid-stream) flows through the
// encoders, so a consumer can still classify the error by identity.
type NodeSource interface {
	Next() (goddag.Node, error)
	Size() int
}

const jsonHex = "0123456789abcdef"

// digitPairs holds all two-digit decimal strings back to back, so the
// integer appender emits two digits per division.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// AppendUint appends the decimal form of v, which must be non-negative
// — true of every quantity the encoders emit (offsets, counts, indexes,
// durations). It exists because strconv.AppendInt's generic formatter
// was a measurable share of large-response encoding time: this one
// extends dst by the exact width, then fills digit pairs in place, so
// there is no scratch buffer to copy out of.
func AppendUint(dst []byte, v int64) []byte {
	u := uint64(v)
	if u < 10 {
		return append(dst, byte('0'+u))
	}
	if u < 100 {
		j := u * 2
		return append(dst, digitPairs[j], digitPairs[j+1])
	}
	n := 3
	for p := uint64(1000); u >= p && n < 20; p *= 10 {
		n++
	}
	dst = append(dst, "00000000000000000000"[:n]...)
	i := len(dst)
	for u >= 100 {
		q := u / 100
		j := (u - q*100) * 2
		i -= 2
		dst[i] = digitPairs[j]
		dst[i+1] = digitPairs[j+1]
		u = q
	}
	if u >= 10 {
		j := u * 2
		dst[i-2] = digitPairs[j]
		dst[i-1] = digitPairs[j+1]
	} else {
		dst[i-1] = byte('0' + u)
	}
	return dst
}

// AppendJSONString appends s as a JSON string literal, byte-identical
// to encoding/json with HTML escaping disabled: quotes and backslashes
// escaped, control bytes as \b \f \n \r \t or \u00XX, invalid UTF-8 as
// �, and U+2028/U+2029 escaped for JSONP safety.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', jsonHex[b>>4], jsonHex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', jsonHex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	dst = append(dst, '"')
	return dst
}

func appendSpanJSON(dst []byte, start, end int) []byte {
	dst = append(dst, `{"start":`...)
	dst = AppendUint(dst, int64(start))
	dst = append(dst, `,"end":`...)
	dst = AppendUint(dst, int64(end))
	dst = append(dst, '}')
	return dst
}

// NodeEncoder carries the incremental state of one node-set rendering
// pass: a pair of rune cursors (one for span starts, one for ends) that
// make byte→rune conversion amortized O(1) when nodes arrive in
// document order, which streamed node-sets always do. The zero value is
// ready to use; a NodeEncoder must not be shared across goroutines or
// across document mutations.
type NodeEncoder struct {
	content *document.Content
	starts  document.RuneCursor
	ends    document.RuneCursor
	// nodes feeds node-set Values through the NodeSource loops. It is
	// allocated on first use only, so scalar results cost nothing, and
	// then reused, so the tuples of one FLWOR result share it.
	nodes *sliceSource
}

// runeSpan converts sp through the cursors, re-anchoring them when the
// content changes (first node, or a new document mid-stream).
func (e *NodeEncoder) runeSpan(content *document.Content, sp document.Span) document.Span {
	if e.content != content {
		e.content = content
		e.starts = content.RuneCursor()
		e.ends = content.RuneCursor()
	}
	return document.Span{Start: e.starts.RuneOffset(sp.Start), End: e.ends.RuneOffset(sp.End)}
}

// AppendNodeJSON appends the JSON wire form of one result node: its
// place in the GODDAG and its extent as both byte and rune offsets into
// the shared content, with the full dominated text,
//
//	{"kind":"element","hierarchy":"words","tag":"w","byteSpan":{"start":4,"end":9},"runeSpan":{"start":4,"end":8},"text":"hwæt"}
//
// kind is "element", "leaf" or "root"; hierarchy, tag (elements, and
// the root's tag) and leaf (a leaf's index) are omitted when empty or
// zero.
func (e *NodeEncoder) AppendNodeJSON(dst []byte, n goddag.Node) []byte {
	content := n.Document().Content()
	sp := n.Span()
	dst = append(dst, `{"kind":`...)
	switch v := n.(type) {
	case *goddag.Element:
		dst = append(dst, `"element"`...)
		if h := v.Hierarchy().Name(); h != "" {
			dst = append(dst, `,"hierarchy":`...)
			dst = AppendJSONString(dst, h)
		}
		if tag := v.Name(); tag != "" {
			dst = append(dst, `,"tag":`...)
			dst = AppendJSONString(dst, tag)
		}
	case goddag.Leaf:
		dst = append(dst, `"leaf"`...)
		if idx := v.Index(); idx != 0 {
			dst = append(dst, `,"leaf":`...)
			dst = AppendUint(dst, int64(idx))
		}
	default:
		dst = append(dst, `"root"`...)
		if tag := n.Document().RootTag(); tag != "" {
			dst = append(dst, `,"tag":`...)
			dst = AppendJSONString(dst, tag)
		}
	}
	dst = append(dst, `,"byteSpan":`...)
	dst = appendSpanJSON(dst, sp.Start, sp.End)
	rs := e.runeSpan(content, sp)
	dst = append(dst, `,"runeSpan":`...)
	dst = appendSpanJSON(dst, rs.Start, rs.End)
	dst = append(dst, `,"text":`...)
	dst = AppendJSONString(dst, n.Text())
	dst = append(dst, '}')
	return dst
}

func (e *NodeEncoder) appendRuneSpan(dst []byte, content *document.Content, sp document.Span) []byte {
	rs := e.runeSpan(content, sp)
	dst = append(dst, '[')
	dst = AppendUint(dst, int64(rs.Start))
	dst = append(dst, ',')
	dst = AppendUint(dst, int64(rs.End))
	dst = append(dst, ')')
	return dst
}

// appendClippedQuote appends the Go-quoted form of s clipped to 60
// runes (57 runes + "..." when longer), without materializing the
// clipped string.
func appendClippedQuote(dst []byte, s string) []byte {
	runes, cut := 0, -1
	for i := range s {
		if runes == 57 {
			cut = i
		}
		runes++
		if runes > 60 {
			dst = strconv.AppendQuote(dst, s[:cut])
			// Splice the ellipsis inside the closing quote; dots need
			// no escaping, so this equals Quote(s[:cut] + "...").
			dst = dst[:len(dst)-1]
			return append(dst, '.', '.', '.', '"')
		}
	}
	return strconv.AppendQuote(dst, s)
}

// AppendNodeText appends the cxquery line format of n:
//
//	hierarchy:tag[lo,hi) "text"    (elements)
//	leaf#i[lo,hi) "text"           (leaves)
//	root:tag "text"                (the root)
//
// Printed spans are character (rune) positions — the paper's
// coordinates — converted from the internal byte spans at this output
// edge. Text is clipped to 60 runes.
func (e *NodeEncoder) AppendNodeText(dst []byte, n goddag.Node) []byte {
	content := n.Document().Content()
	switch v := n.(type) {
	case *goddag.Element:
		dst = append(dst, v.Hierarchy().Name()...)
		dst = append(dst, ':')
		dst = append(dst, v.Name()...)
		dst = e.appendRuneSpan(dst, content, v.Span())
		dst = append(dst, ' ')
		return appendClippedQuote(dst, v.Text())
	case goddag.Leaf:
		dst = append(dst, "leaf#"...)
		dst = AppendUint(dst, int64(v.Index()))
		dst = e.appendRuneSpan(dst, content, v.Span())
		dst = append(dst, ' ')
		return appendClippedQuote(dst, v.Text())
	default:
		dst = append(dst, "root:"...)
		dst = append(dst, n.Document().RootTag()...)
		dst = append(dst, ' ')
		return appendClippedQuote(dst, n.Text())
	}
}

// scratchPool recycles the per-call line buffers of the streaming
// writers, so sustained serving performs no per-node allocations.
var scratchPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// WriteNodesText streams nodes from src as AppendNodeText lines. A
// limit > 0 stops after limit nodes without pulling further; limit <= 0
// writes everything. Returns the number of nodes written.
func WriteNodesText(w io.Writer, src NodeSource, limit int) (int, error) {
	var e NodeEncoder
	return e.writeNodesText(w, src, limit)
}

func (e *NodeEncoder) writeNodesText(w io.Writer, src NodeSource, limit int) (int, error) {
	bp := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(bp)
	written := 0
	for limit <= 0 || written < limit {
		n, err := src.Next()
		if err != nil {
			return written, err
		}
		if n == nil {
			break
		}
		buf := (*bp)[:0]
		buf = e.AppendNodeText(buf, n)
		buf = append(buf, '\n')
		*bp = buf[:0] // keep any growth for the next node
		if _, err := w.Write(buf); err != nil {
			return written, err
		}
		written++
	}
	return written, nil
}
