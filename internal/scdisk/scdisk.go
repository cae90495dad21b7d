// Package scdisk is the out-of-core storage backend: it implements the
// paper's model literally, with the set family living in a read-only file on
// external storage (the SCB1 binary format of internal/setcover) and
// algorithms touching it only through sequential passes. Repo implements
// stream.Repository, and the readers its passes return implement
// stream.Recycler, so IterSetCover and every baseline
// run unmodified against files arbitrarily larger than memory: a pass holds
// O(BatchSize · avg-set-size) decoded sets live, never the whole family.
//
// Every reader decodes its span of the file with setcover.DecodeSetBytes
// from one byte window. With ReadOnlyMmap (or NewRepoBytes) the window is
// the span of the mapped image itself and nothing is copied; otherwise it is
// a buffer that ReadAt refills whenever a set runs past its end.
//
// On-disk layout (see DESIGN.md §6):
//
//	SCB1 header + m delta-encoded sets      — byte-identical to
//	                                          setcover.WriteBinary
//	optional index footer:
//	  "SCIX" varint(m) then per set: varint(byteLen) varint(cardinality)
//	trailer (12 bytes, fixed):
//	  uint64 LE absolute offset of "SCIX" | magic "SCX1"
//	optional weight section (weights.go):
//	  "SCWT" varint(m) then m × float64 LE, then a 12-byte trailer:
//	  uint64 LE absolute offset of "SCWT" | magic "SCW1"
//
// The footer is strictly additive: setcover.ReadBinary stops after the m-th
// set and ignores it, and Repo reads plain SCB1 files (no trailer) just as
// well — it only loses SetSpan and segmented passes. Writer always emits the
// footer; byte lengths and cardinalities are accumulated while streaming, so
// writing needs O(m) words of state, not the instance. The weight section is
// emitted only when SetWeights was called, and is additive the same way —
// except that a present-but-corrupt weight section fails the open (weights
// change covers, so they are never silently dropped).
package scdisk

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/setcover"
)

var (
	indexMagic   = [4]byte{'S', 'C', 'I', 'X'}
	trailerMagic = [4]byte{'S', 'C', 'X', '1'}
)

// trailerLen is the fixed size of the end-of-file trailer: an 8-byte
// little-endian absolute offset of the index footer plus trailerMagic.
const trailerLen = 12

// Writer streams an instance to the SCB1 format set by set, appending the
// index footer on Close. It never holds more than one encoded set plus O(m)
// index words, so generators can emit families larger than RAM.
type Writer struct {
	bw      *bufio.Writer
	n, m    int
	written int
	lens    []int64   // encoded byte length of each set
	cards   []int32   // cardinality of each set
	weights []float64 // per-set costs; SCWT section emitted on Close when set
	scratch []byte
	err     error
}

// NewWriter writes the SCB1 header for an n-element universe and m sets and
// returns a writer expecting exactly m WriteSet calls followed by Close.
func NewWriter(w io.Writer, n, m int) (*Writer, error) {
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("scdisk: negative dimensions n=%d m=%d", n, m)
	}
	if n > setcover.MaxBinaryDim || m > setcover.MaxBinaryDim {
		// Fail before streaming for hours: no reader accepts such a file.
		return nil, fmt.Errorf("scdisk: dimensions n=%d m=%d exceed the format limit %d", n, m, setcover.MaxBinaryDim)
	}
	sw := &Writer{bw: bufio.NewWriterSize(w, 1<<16), n: n, m: m}
	sw.scratch = setcover.AppendBinaryHeader(sw.scratch[:0], n, m)
	if _, err := sw.bw.Write(sw.scratch); err != nil {
		sw.err = err
		return nil, err
	}
	return sw, nil
}

// WriteSet appends the next set of the stream. Elems must be sorted-unique
// in [0, n); the set's stream ID is its call position.
func (w *Writer) WriteSet(elems []setcover.Elem) error {
	if w.err != nil {
		return w.err
	}
	if w.written >= w.m {
		return w.fail(fmt.Errorf("scdisk: WriteSet called more than m=%d times", w.m))
	}
	for i, e := range elems {
		if e < 0 || int(e) >= w.n {
			return w.fail(fmt.Errorf("scdisk: set %d: element %d out of range [0,%d)", w.written, e, w.n))
		}
		if i > 0 && e <= elems[i-1] {
			return w.fail(fmt.Errorf("scdisk: set %d: elements not sorted-unique at position %d", w.written, i))
		}
	}
	w.scratch = setcover.AppendSetBinary(w.scratch[:0], elems)
	if _, err := w.bw.Write(w.scratch); err != nil {
		return w.fail(err)
	}
	w.lens = append(w.lens, int64(len(w.scratch)))
	w.cards = append(w.cards, int32(len(elems)))
	w.written++
	return nil
}

// SetWeights attaches a per-set cost vector to the file being written: Close
// appends the SCWT weight section (see weights.go) after the index footer.
// weights must carry exactly m entries, each finite and strictly positive
// (setcover.ValidateWeights) — the same trust-boundary check the reader
// applies, so a writer can never produce a file its own reader rejects. The
// slice is retained, not copied; the caller must not mutate it before Close.
// Passing nil clears a previously set vector. A validation failure leaves
// the writer usable (the file is not poisoned — no bytes were written).
func (w *Writer) SetWeights(weights []float64) error {
	if w.err != nil {
		return w.err
	}
	if weights == nil {
		w.weights = nil
		return nil
	}
	if err := setcover.ValidateWeights(weights, w.m); err != nil {
		return fmt.Errorf("scdisk: %w", err)
	}
	w.weights = weights
	return nil
}

// Close verifies all m sets were written, appends the index footer and
// trailer (plus the SCWT weight section when SetWeights was called), and
// flushes. It does not close the underlying writer.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.written != w.m {
		return w.fail(fmt.Errorf("scdisk: wrote %d of %d sets", w.written, w.m))
	}
	indexOff := int64(len(setcover.AppendBinaryHeader(nil, w.n, w.m)))
	for _, l := range w.lens {
		indexOff += l
	}
	buf := append(w.scratch[:0], indexMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(w.m))
	for i := range w.lens {
		buf = binary.AppendUvarint(buf, uint64(w.lens[i]))
		buf = binary.AppendUvarint(buf, uint64(w.cards[i]))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(indexOff))
	buf = append(buf, trailerMagic[:]...)
	if _, err := w.bw.Write(buf); err != nil {
		return w.fail(err)
	}
	if w.weights != nil {
		// The weight section is outermost: its absolute offset is where the
		// index block just ended.
		weightOff := indexOff + int64(len(buf))
		buf = appendWeightSection(buf[:0], weightOff, w.weights)
		if _, err := w.bw.Write(buf); err != nil {
			return w.fail(err)
		}
	}
	if err := w.bw.Flush(); err != nil {
		return w.fail(err)
	}
	w.err = fmt.Errorf("scdisk: writer closed")
	return nil
}

func (w *Writer) fail(err error) error {
	w.err = err
	return err
}

// Write streams a materialized instance to w in the indexed SCB1 format.
// The sets must be normalized (sorted-unique elements, sequential IDs).
// Instances carrying a weight vector get the SCWT weight section appended.
func Write(w io.Writer, in *setcover.Instance) error {
	if err := in.Validate(); err != nil {
		return err
	}
	sw, err := NewWriter(w, in.N, len(in.Sets))
	if err != nil {
		return err
	}
	if in.Weights != nil {
		if err := sw.SetWeights(in.Weights); err != nil {
			return err
		}
	}
	for _, s := range in.Sets {
		if err := sw.WriteSet(s.Elems); err != nil {
			return err
		}
	}
	return sw.Close()
}

// WriteFile writes a materialized instance to path in the indexed SCB1
// format.
func WriteFile(path string, in *setcover.Instance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, in); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
