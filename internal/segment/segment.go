// Package segment implements immutable, compressed blocks of code
// vectors — the out-of-core storage layer behind the model checker's
// visited set and the simulator's trace log.
//
// A segment holds a fixed number of fixed-width rows of uint32
// dictionary codes, stored column-major. Each column is compressed
// with frame-of-reference delta coding (subtract the column minimum)
// followed by bit-packing of the deltas into 64-bit words; columns
// whose packed form would not beat 4 bytes/value fall back to a raw
// []uint32 copy, and constant columns store no payload at all. The
// encoding is exact: every code (including the NULL code 0 and
// math.MaxUint32 outliers) round-trips byte-identical.
//
// Segments are built through a Writer (append rows, then Seal), are
// immutable once sealed, stream without per-row allocation, and
// serialize to a compact little-endian byte format for spill-to-disk
// (see Store).
package segment

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
)

// col is one compressed column. Exactly one representation is active:
//
//	bits == 0:  constant column; every value equals base. No payload.
//	bits == 32: raw fallback; values are raw[i]. base is unused.
//	otherwise:  frame-of-reference bit-packing; value i is base plus
//	            the bits-wide integer at bit offset i*bits of words.
type col struct {
	base  uint32
	bits  uint8
	words []uint64
	raw   []uint32
}

// Segment is an immutable compressed block of fixed-width code rows.
type Segment struct {
	rows  int
	width int
	cols  []col
}

// Bytes reports the approximate resident payload size of the segment:
// compressed column payloads plus fixed per-column overhead.
func (s *Segment) Bytes() int64 {
	n := int64(segHeaderBytes) + int64(len(s.cols))*colHeaderBytes
	for _, c := range s.cols {
		n += 8*int64(len(c.words)) + 4*int64(len(c.raw))
	}
	return n
}

const (
	segHeaderBytes = 48 // struct + slice headers, approximate
	colHeaderBytes = 64
)

// At returns the code at row i, column j. It performs no bounds
// normalization beyond the slice accesses themselves.
func (s *Segment) At(i, j int) uint32 {
	c := &s.cols[j]
	switch c.bits {
	case 0:
		return c.base
	case 32:
		return c.raw[i]
	default:
		return c.base + c.unpack(i)
	}
}

// unpack extracts the i-th bits-wide delta from the packed words.
func (c *col) unpack(i int) uint32 {
	nb := uint(c.bits)
	bit := uint(i) * nb
	w, off := bit>>6, bit&63
	v := c.words[w] >> off
	if off+nb > 64 {
		v |= c.words[w+1] << (64 - off)
	}
	return uint32(v & (1<<nb - 1))
}

// Tuple decodes row i into dst (grown if needed) and returns it.
func (s *Segment) Tuple(i int, dst []uint32) []uint32 {
	if cap(dst) < s.width {
		dst = make([]uint32, s.width)
	}
	dst = dst[:s.width]
	for j := range s.cols {
		dst[j] = s.At(i, j)
	}
	return dst
}

// Stream decodes rows [lo, hi) in order, invoking fn with the row index
// and a scratch tuple that is reused between calls (callers must copy
// it to retain it). Returning false from fn stops the stream early.
// With a caller-provided buf of capacity >= Width, streaming performs
// no per-row allocation.
func (s *Segment) Stream(lo, hi int, buf []uint32, fn func(i int, tuple []uint32) bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > s.rows {
		hi = s.rows
	}
	if lo >= hi {
		return
	}
	if cap(buf) < s.width {
		buf = make([]uint32, s.width)
	}
	buf = buf[:s.width]
	for i := lo; i < hi; i++ {
		for j := range s.cols {
			buf[j] = s.At(i, j)
		}
		if !fn(i, buf) {
			return
		}
	}
}

// Writer accumulates fixed-width code rows column-major and seals them
// into an immutable compressed Segment. A Writer is not safe for
// concurrent use.
type Writer struct {
	width int
	rows  int
	cols  [][]uint32
}

// NewWriter returns a Writer for rows of the given width (codes/row).
func NewWriter(width int) *Writer {
	if width <= 0 {
		panic(fmt.Sprintf("segment: invalid width %d", width))
	}
	return &Writer{width: width, cols: make([][]uint32, width)}
}

// Rows reports the number of rows appended so far.
func (w *Writer) Rows() int { return w.rows }

// Bytes reports the approximate resident size of the unsealed rows.
func (w *Writer) Bytes() int64 {
	n := int64(0)
	for _, c := range w.cols {
		n += 4 * int64(cap(c))
	}
	return n
}

// Append adds one row. len(tuple) must equal Width.
func (w *Writer) Append(tuple []uint32) {
	if len(tuple) != w.width {
		panic(fmt.Sprintf("segment: append width %d into writer width %d", len(tuple), w.width))
	}
	for j, v := range tuple {
		w.cols[j] = append(w.cols[j], v)
	}
	w.rows++
}

// Tuple decodes unsealed row i into dst (grown if needed).
func (w *Writer) Tuple(i int, dst []uint32) []uint32 {
	if cap(dst) < w.width {
		dst = make([]uint32, w.width)
	}
	dst = dst[:w.width]
	for j := range w.cols {
		dst[j] = w.cols[j][i]
	}
	return dst
}

// Seal compresses the accumulated rows into an immutable Segment and
// resets the writer to empty. Sealing zero rows returns nil.
func (w *Writer) Seal() *Segment {
	if w.rows == 0 {
		return nil
	}
	s := Pack(w.cols, w.rows)
	for j := range w.cols {
		w.cols[j] = w.cols[j][:0]
	}
	w.rows = 0
	return s
}

// Pack compresses n rows of column-major codes into a Segment. Each
// cols[j] must have at least n elements; the inputs are copied, never
// aliased.
func Pack(cols [][]uint32, n int) *Segment {
	if n <= 0 {
		return nil
	}
	s := &Segment{rows: n, width: len(cols), cols: make([]col, len(cols))}
	for j, src := range cols {
		s.cols[j] = packColumn(src[:n])
	}
	return s
}

// packColumn picks the cheapest exact representation for one column:
// constant, frame-of-reference bit-packed, or raw.
func packColumn(codes []uint32) col {
	lo, hi := codes[0], codes[0]
	for _, v := range codes[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	nb := uint(bits.Len32(hi - lo))
	if nb == 0 {
		return col{base: lo, bits: 0}
	}
	packedBytes := (len(codes)*int(nb) + 63) / 64 * 8
	if nb >= 32 || packedBytes >= 4*len(codes) {
		raw := make([]uint32, len(codes))
		copy(raw, codes)
		return col{bits: 32, raw: raw}
	}
	words := make([]uint64, (len(codes)*int(nb)+63)/64)
	for i, v := range codes {
		d := uint64(v - lo)
		bit := uint(i) * nb
		w, off := bit>>6, bit&63
		words[w] |= d << off
		if off+nb > 64 {
			words[w+1] |= d >> (64 - off)
		}
	}
	return col{base: lo, bits: uint8(nb), words: words}
}

// Serialization format (little-endian):
//
//	magic "CSG1" | u32 width | u32 rows
//	per column: u32 base | u8 bits | u32 n | payload
//	  bits == 0:  n == 0, no payload
//	  bits == 32: n raw uint32 values
//	  else:       n packed uint64 words
var magic = [4]byte{'C', 'S', 'G', '1'}

// WriteTo serializes the segment. It implements io.WriterTo.
func (s *Segment) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}
	if _, err := cw.Write(magic[:]); err != nil {
		return cw.n, err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(s.width))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(s.rows))
	if _, err := cw.Write(hdr[:]); err != nil {
		return cw.n, err
	}
	var scratch [8]byte
	for _, c := range s.cols {
		binary.LittleEndian.PutUint32(scratch[0:], c.base)
		scratch[4] = c.bits
		n := len(c.words)
		if c.bits == 32 {
			n = len(c.raw)
		}
		if _, err := cw.Write(scratch[:5]); err != nil {
			return cw.n, err
		}
		var nb [4]byte
		binary.LittleEndian.PutUint32(nb[:], uint32(n))
		if _, err := cw.Write(nb[:]); err != nil {
			return cw.n, err
		}
		switch c.bits {
		case 0:
		case 32:
			var vb [4]byte
			for _, v := range c.raw {
				binary.LittleEndian.PutUint32(vb[:], v)
				if _, err := cw.Write(vb[:]); err != nil {
					return cw.n, err
				}
			}
		default:
			var wb [8]byte
			for _, v := range c.words {
				binary.LittleEndian.PutUint64(wb[:], v)
				if _, err := cw.Write(wb[:]); err != nil {
					return cw.n, err
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Read deserializes a segment written by WriteTo.
func Read(r io.Reader) (*Segment, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("segment: read magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("segment: bad magic %q", m[:])
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("segment: read header: %w", err)
	}
	width := int(binary.LittleEndian.Uint32(hdr[0:]))
	rows := int(binary.LittleEndian.Uint32(hdr[4:]))
	if width <= 0 || width > 1<<20 || rows < 0 || rows > 1<<31-1 {
		return nil, fmt.Errorf("segment: implausible header width=%d rows=%d", width, rows)
	}
	s := &Segment{rows: rows, width: width, cols: make([]col, width)}
	for j := 0; j < width; j++ {
		var ch [9]byte
		if _, err := io.ReadFull(br, ch[:]); err != nil {
			return nil, fmt.Errorf("segment: read column %d header: %w", j, err)
		}
		c := col{base: binary.LittleEndian.Uint32(ch[0:]), bits: ch[4]}
		n := int(binary.LittleEndian.Uint32(ch[5:]))
		switch {
		case c.bits == 0:
			if n != 0 {
				return nil, fmt.Errorf("segment: constant column %d with payload", j)
			}
		case c.bits == 32:
			if n != rows {
				return nil, fmt.Errorf("segment: raw column %d has %d values, want %d", j, n, rows)
			}
			c.raw = make([]uint32, n)
			var vb [4]byte
			for i := range c.raw {
				if _, err := io.ReadFull(br, vb[:]); err != nil {
					return nil, fmt.Errorf("segment: read column %d: %w", j, err)
				}
				c.raw[i] = binary.LittleEndian.Uint32(vb[:])
			}
		case c.bits < 32:
			want := (rows*int(c.bits) + 63) / 64
			if n != want {
				return nil, fmt.Errorf("segment: packed column %d has %d words, want %d", j, n, want)
			}
			c.words = make([]uint64, n)
			var wb [8]byte
			for i := range c.words {
				if _, err := io.ReadFull(br, wb[:]); err != nil {
					return nil, fmt.Errorf("segment: read column %d: %w", j, err)
				}
				c.words[i] = binary.LittleEndian.Uint64(wb[:])
			}
		default:
			return nil, fmt.Errorf("segment: column %d has invalid bit width %d", j, c.bits)
		}
		s.cols[j] = c
	}
	return s, nil
}
