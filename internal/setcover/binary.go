package setcover

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Binary instance format (SCB1), for large repositories where the text format
// is too slow or too big. Layout (all integers unsigned varints):
//
//	magic "SCB1" (4 bytes)
//	n, m
//	per set: count, then the elements delta-encoded (first element, then
//	gaps-minus-one between consecutive sorted elements)
//
// Delta encoding keeps dense sets near one byte per element.
//
// AppendBinaryHeader/DecodeBinaryHeader and AppendSetBinary/DecodeSetBytes
// encode and decode the header and one set at a time, so that streaming
// backends (internal/scdisk) work set by set, byte-identically to
// WriteBinary, without ever materializing an Instance. DecodeSetBytes is the
// only SCB1 set decoder: ReadBinary, scdisk's passes (from a mapped file or
// from a window refilled by positional reads) and scdyn's delta log all go
// through it. A file may carry trailing data after the m-th set (scdisk
// appends an optional seek index there); ReadBinary ignores it, which is what
// keeps the two formats compatible in both directions.

var binaryMagic = [4]byte{'S', 'C', 'B', '1'}

// MaxBinaryDim bounds n and m in the binary header; writers (scdisk) and the
// text reader reject larger dimensions up front, so no instance or file they
// produce is one the binary readers refuse.
// Chosen to fit int32 so dimension values and comparisons are portable to
// 32-bit platforms.
const MaxBinaryDim = 1<<31 - 1

// maxPrealloc caps speculative allocation driven by untrusted length fields:
// a decoder may only reserve this many entries up front and must grow
// incrementally from there, so a handful of malicious header bytes cannot
// demand gigabytes (each decoded entry costs at least one input byte, which
// bounds the incremental growth by the input size).
const maxPrealloc = 1 << 12

// preallocCap clamps an untrusted count to a safe initial capacity.
func preallocCap(count uint64) int {
	if count > maxPrealloc {
		return maxPrealloc
	}
	return int(count)
}

// AppendBinaryHeader appends the SCB1 magic and the n, m varints to dst.
func AppendBinaryHeader(dst []byte, n, m int) []byte {
	dst = append(dst, binaryMagic[:]...)
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(m))
	return dst
}

// DecodeBinaryHeader decodes the SCB1 magic and dimensions from the front of
// data and returns them with the number of bytes they occupied.
func DecodeBinaryHeader(data []byte) (n, m, size int, err error) {
	if len(data) < len(binaryMagic) {
		return 0, 0, 0, fmt.Errorf("setcover: binary header: %w", io.ErrUnexpectedEOF)
	}
	if [4]byte(data) != binaryMagic {
		return 0, 0, 0, fmt.Errorf("setcover: bad binary magic")
	}
	size = len(binaryMagic)
	var dims [2]int
	for i, what := range [2]string{"n", "m"} {
		v, k := binary.Uvarint(data[size:])
		if k <= 0 {
			cut := fmt.Errorf("binary %s: %w", what, io.ErrUnexpectedEOF)
			return 0, 0, 0, fmt.Errorf("setcover: %w", varintErr(what, k, cut))
		}
		if v > MaxBinaryDim {
			return 0, 0, 0, fmt.Errorf("setcover: binary %s %d exceeds limit %d", what, v, MaxBinaryDim)
		}
		dims[i] = int(v)
		size += k
	}
	return dims[0], dims[1], size, nil
}

// AppendSetBinary appends the SCB1 encoding of one set (count, then
// delta-encoded elements) to dst. Elems must be sorted-unique and
// non-negative; WriteBinary validates the whole instance before calling this,
// and scdisk.Writer validates per set.
func AppendSetBinary(dst []byte, elems []Elem) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(elems)))
	prev := int64(-1)
	for _, e := range elems {
		dst = binary.AppendUvarint(dst, uint64(int64(e)-prev-1))
		prev = int64(e)
	}
	return dst
}

// DecodeSetBytes decodes one SCB1-encoded set from the front of data into
// buf (reusing its capacity; nil allocates) and returns the elements —
// sorted-unique in [0, n) — plus how many bytes of data the set occupied.
// n is a universe size in [0, MaxBinaryDim]. Allocation is bounded by the
// bytes actually present, never by the claimed count alone.
//
// A set cut off by the end of data fails with an error wrapping
// io.ErrUnexpectedEOF; any other error depends only on bytes before the
// failure point. Decoding a prefix of data therefore either reports
// truncation or gives exactly the result of decoding all of it
// (FuzzDecodeSetBytes), which is what lets scdisk decode from a window and
// refill it on truncation.
//
// Gaps of one and two bytes, which are nearly all of them in dense and in
// sparse sets alike, are decoded without a data-dependent branch: one test
// finds that one of the next two bytes ends the varint, and the second byte
// is masked in only when the first continues. Longer gaps and the last byte
// of data go through binary.Uvarint. A branch on whether the first byte
// ends the varint would be faster when every gap is below 128, but it
// mispredicts on sets whose gaps straddle 128, such as 16 elements of 5000
// or 20 of 2000.
func DecodeSetBytes(data []byte, n int, buf []Elem) ([]Elem, int, error) {
	count, pos := binary.Uvarint(data)
	if pos <= 0 {
		return nil, 0, varintErr("set size", pos, errSizeCut)
	}
	if count > uint64(n) {
		return nil, 0, fmt.Errorf("binary set size %d exceeds limit %d", count, n)
	}
	// Every element takes at least one byte, so a count above the bytes
	// left is a cut-off set: decode the elements those bytes can hold (an
	// error among them comes first), then report the truncation.
	have := min(count, uint64(len(data)-pos))
	buf = slices.Grow(buf[:0], int(have))[:have]
	un, next := uint64(n), uint64(0) // next: one past the previous element
	for j := range buf {
		var gap uint64
		if pos+1 < len(data) && data[pos]&data[pos+1] < 0x80 {
			b0, b1 := uint64(data[pos]), uint64(data[pos+1])
			cont := b0 >> 7
			gap = b0&0x7f | (b1<<7)&-cont
			pos += int(1 + cont)
		} else {
			g, k := binary.Uvarint(data[pos:])
			if k <= 0 {
				return nil, 0, varintErr("gap", k, errGapCut)
			}
			gap = g
			pos += k
		}
		if gap >= un-next {
			return nil, 0, rangeErr(gap, next, n)
		}
		buf[j] = Elem(next + gap)
		next += gap + 1
	}
	if have < count {
		return nil, 0, errGapCut
	}
	return buf, pos, nil
}

// rangeErr is the error of a gap that puts the element after next-1 at or
// past n.
func rangeErr(gap, next uint64, n int) error {
	if gap > uint64(n) {
		return fmt.Errorf("binary gap %d exceeds limit %d", gap, n)
	}
	return fmt.Errorf("binary set: element %d out of range", next+gap)
}

// The truncation errors of DecodeSetBytes, built once: a window-refilling
// reader hits one at the end of every window.
var (
	errSizeCut = fmt.Errorf("binary set size: %w", io.ErrUnexpectedEOF)
	errGapCut  = fmt.Errorf("binary gap: %w", io.ErrUnexpectedEOF)
)

// varintErr maps binary.Uvarint's non-positive return k for field what to
// the matching decode error: 0 is truncation, reported as cut (which wraps
// io.ErrUnexpectedEOF); negative is a 64-bit overflow.
func varintErr(what string, k int, cut error) error {
	if k == 0 {
		return cut
	}
	return fmt.Errorf("binary %s: varint overflows 64 bits", what)
}

// WriteBinary serializes the instance in the binary format. Sets must be
// normalized (sorted unique elements); call Normalize first if unsure.
func WriteBinary(w io.Writer, in *Instance) error {
	if err := in.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	var buf []byte
	buf = AppendBinaryHeader(buf, in.N, len(in.Sets))
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	for _, s := range in.Sets {
		buf = AppendSetBinary(buf[:0], s.Elems)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary reads r whole, parses it as an instance in the binary format
// and validates it. Trailing bytes after the m-th set (e.g. an scdisk index
// footer) are ignored.
func ReadBinary(r io.Reader) (*Instance, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	n, m, pos, err := DecodeBinaryHeader(data)
	if err != nil {
		return nil, err
	}
	in := &Instance{N: n, Sets: make([]Set, 0, preallocCap(uint64(m)))}
	for i := 0; i < m; i++ {
		elems, k, err := DecodeSetBytes(data[pos:], n, nil)
		if err != nil {
			return nil, fmt.Errorf("setcover: set %d: %w", i, err)
		}
		pos += k
		in.Sets = append(in.Sets, Set{ID: i, Elems: elems})
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}
