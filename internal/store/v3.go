package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/goddag"
)

// .gdag format v3: a section-table layout designed for
// open-without-decode. The file is a 16-byte header ("GDAG", version 3,
// little-endian section count), a directory of fixed 24-byte section
// entries (id, byte length, absolute offset, CRC-32C), a CRC-32C over
// header+directory, and then the 8-byte-aligned section payloads. The
// payloads are the document's columnar image (goddag.Columns) — content
// bytes, fixed-stride element columns, string table, and the serialized
// derived indexes — so a mapped reader validates the header, aliases
// the arrays in place, and never parses. Every multi-byte integer in a
// v3 file is little-endian and fixed-width, unlike v2's varint stream.
const (
	v3Version = 3

	v3HeaderLen = 16 // magic(4) + version(1) + pad(3) + nsec(4) + pad(4)
	v3EntryLen  = 24 // id(4) + len(4) + off(8) + crc(4) + pad(4)

	secMeta     = 1  // u32s: contentLen, rootTagID, nhier, nelems, nattrs, nleaves, nstrings, then {nameID,count} per hierarchy
	secContent  = 2  // raw content bytes
	secStrBlob  = 3  // concatenated string bytes
	secStrOff   = 4  // u32 × (nstrings+1): prefix offsets into StrBlob
	secTag      = 5  // u32 × nelems: tag string id, arena order
	secStart    = 6  // u32 × nelems: span start
	secEnd      = 7  // u32 × nelems: span end
	secParent   = 8  // i32 × nelems: parent arena index, -1 for top-level
	secPreEnd   = 9  // u32 × nelems: hierarchy-local pre-order subtree end
	secOrd      = 10 // u32 × nelems: document-order ordinal
	secAttrOff  = 11 // u32 × (nelems+1): prefix offsets into AttrName/AttrVal
	secAttrName = 12 // u32 × nattrs: attribute name string id
	secAttrVal  = 13 // u32 × nattrs: attribute value string id
	secCuts     = 14 // u32 × nleaves: partition leaf starts
	secLeafOrd  = 15 // i32 × nleaves: leaf ordinal
	secByOrd    = 16 // i32 × (1+nelems+nleaves): ordinal -> node
	secOrder    = 17 // u32 × nelems: document-order position -> arena index
	secSpanMax  = 18 // i32 × 4·nelems: span-index segment tree
	secBuckets  = 19 // u32 nbuckets, then {tagID,count} pairs, then concatenated positions

	secMax        = secBuckets
	v3MaxSections = 64

	// secLSN is optional and outside the required range: a u64, the
	// commit sequence number of the last WAL record the file contains.
	// Checkpoints write it; a file without it (an ingest save, or one
	// written before LSNs existed) is at LSN 0.
	secLSN = 20
)

// EncodeV3 writes the document in the v3 section-table format. The
// output is deterministic for a given document. Documents whose content
// or counts exceed the u32 coordinate space are rejected (v2's varint
// form has the same practical bound via maxString).
func EncodeV3(w io.Writer, doc *goddag.Document) error {
	data, err := appendV3(nil, doc, 0)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("store: encode v3: %w", err)
	}
	return nil
}

// appendV3 appends the complete v3 image of doc to buf, with an LSN
// section when lsn is non-zero.
func appendV3(buf []byte, doc *goddag.Document, lsn uint64) ([]byte, error) {
	if doc.Content().Len() > math.MaxInt32 {
		return nil, fmt.Errorf("store: encode v3: content too large (%d bytes)", doc.Content().Len())
	}
	cols := doc.ExportColumns()
	if len(cols.Tag) > math.MaxInt32/4 {
		return nil, fmt.Errorf("store: encode v3: too many elements (%d)", len(cols.Tag))
	}

	// String table blob + offsets.
	blobLen := 0
	for _, s := range cols.Strings {
		blobLen += len(s)
	}
	blob := make([]byte, 0, blobLen)
	strOff := make([]uint32, 0, len(cols.Strings)+1)
	for _, s := range cols.Strings {
		strOff = append(strOff, uint32(len(blob)))
		blob = append(blob, s...)
	}
	strOff = append(strOff, uint32(len(blob)))

	strID := make(map[string]uint32, len(cols.Strings))
	for i, s := range cols.Strings {
		if _, ok := strID[s]; !ok {
			strID[s] = uint32(i)
		}
	}
	meta := make([]uint32, 0, 7+2*len(cols.Hiers))
	meta = append(meta,
		uint32(doc.Content().Len()),
		strID[doc.RootTag()],
		uint32(len(cols.Hiers)),
		uint32(len(cols.Tag)),
		uint32(len(cols.AttrName)),
		uint32(len(cols.Cuts)),
		uint32(len(cols.Strings)),
	)
	for _, hc := range cols.Hiers {
		id, ok := strID[hc.Name]
		if !ok {
			return nil, fmt.Errorf("store: encode v3: hierarchy name %q not interned", hc.Name)
		}
		meta = append(meta, id, uint32(hc.N))
	}

	var buckets []uint32
	buckets = append(buckets, uint32(len(cols.Buckets)))
	for _, b := range cols.Buckets {
		buckets = append(buckets, b.Tag, uint32(len(b.Pos)))
	}
	for _, b := range cols.Buckets {
		buckets = append(buckets, b.Pos...)
	}

	sections := []struct {
		id   uint32
		data []byte
	}{
		{secMeta, u32Bytes(meta)},
		{secContent, []byte(doc.Content().String())},
		{secStrBlob, blob},
		{secStrOff, u32Bytes(strOff)},
		{secTag, u32Bytes(cols.Tag)},
		{secStart, u32Bytes(cols.Start)},
		{secEnd, u32Bytes(cols.End)},
		{secParent, i32Bytes(cols.Parent)},
		{secPreEnd, u32Bytes(cols.PreEnd)},
		{secOrd, u32Bytes(cols.Ord)},
		{secAttrOff, u32Bytes(cols.AttrOff)},
		{secAttrName, u32Bytes(cols.AttrName)},
		{secAttrVal, u32Bytes(cols.AttrVal)},
		{secCuts, u32Bytes(cols.Cuts)},
		{secLeafOrd, i32Bytes(cols.LeafOrd)},
		{secByOrd, i32Bytes(cols.ByOrd)},
		{secOrder, u32Bytes(cols.Order)},
		{secSpanMax, i32Bytes(cols.SpanMax)},
		{secBuckets, u32Bytes(buckets)},
	}
	if lsn != 0 {
		sections = append(sections, struct {
			id   uint32
			data []byte
		}{secLSN, binary.LittleEndian.AppendUint64(nil, lsn)})
	}

	// Header + directory.
	dirEnd := v3HeaderLen + len(sections)*v3EntryLen
	off := align8(dirEnd + 4) // header CRC follows the directory
	start := len(buf)
	buf = append(buf, magic...)
	buf = append(buf, v3Version, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sections)))
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	for _, s := range sections {
		buf = binary.LittleEndian.AppendUint32(buf, s.id)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.data)))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(off))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(s.data, crcTable))
		buf = binary.LittleEndian.AppendUint32(buf, 0)
		off += align8(len(s.data))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable))
	for _, s := range sections {
		for len(buf)-start < dirEnd+4 || (len(buf)-start)%8 != 0 {
			buf = append(buf, 0)
		}
		buf = append(buf, s.data...)
	}
	// Trailing alignment of the last section is not written: file length
	// equals the last section's end.
	return buf, nil
}

// align8 rounds up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }

// u32Bytes serializes a uint32 slice little-endian.
func u32Bytes(vs []uint32) []byte {
	out := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// i32Bytes serializes an int32 slice little-endian (two's complement).
func i32Bytes(vs []int32) []byte {
	out := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}
