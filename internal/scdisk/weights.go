// SCWT is the optional per-set weight section of an SCB1 file: an additive
// trailer in the SCIX mold (see DESIGN.md §6) carrying one positive float64
// cost per set. Layout, appended after everything else in the file —
// after the SCIX trailer when the index is present:
//
//	"SCWT" varint(m) then m × float64, little-endian
//	trailer (12 bytes, fixed):
//	  uint64 LE absolute offset of "SCWT" | magic "SCW1"
//
// Like SCIX it is strictly additive — setcover.ReadBinary stops after the
// m-th set and never sees it, and files without it open everywhere as the
// unweighted problem — but unlike SCIX it is NOT a performance hint: weights
// change covers, so a file whose trailer claims the section must decode a
// valid one or fail to open. Silently degrading a truncated or corrupt
// weight section to unit weights would hand back wrong results under a valid
// digest; the decoder therefore validates the magic, the set count against
// the header, the exact section length against the file, and every weight
// (finite, strictly positive — setcover.ValidateWeights) before the
// repository is usable. The residual false-positive — a plain file whose set
// data coincidentally ends in the 12-byte trailer pattern — fails loudly at
// open instead of mis-decoding, the safe side of the same coincidence SCIX
// tolerates by degrading.
package scdisk

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/setcover"
)

var (
	weightMagic        = [4]byte{'S', 'C', 'W', 'T'}
	weightTrailerMagic = [4]byte{'S', 'C', 'W', '1'}
)

// appendWeightSection appends the SCWT section plus its 12-byte trailer to
// buf. sectionOff is the absolute file offset the section will be written at
// (the trailer points back to it).
func appendWeightSection(buf []byte, sectionOff int64, weights []float64) []byte {
	buf = append(buf, weightMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(weights)))
	for _, w := range weights {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(sectionOff))
	return append(buf, weightTrailerMagic[:]...)
}

// parseWeights decodes and validates the SCWT section claimed to start at
// sectionOff (with its trailer occupying the last trailerLen bytes of the
// file). Any mismatch — bad offset, bad magic, a set count disagreeing with
// the header, a section length that does not pin every one of the m weights
// to its exact byte span, or a non-finite/non-positive weight — is an error:
// a weight section must never be misattributed or partially applied.
func (d *Repo) parseWeights(sectionOff int64) ([]float64, error) {
	end := d.size - trailerLen // section spans [sectionOff, end)
	if sectionOff < d.dataOff || sectionOff > end {
		return nil, fmt.Errorf("scdisk: weight section offset %d out of file bounds", sectionOff)
	}
	sr := bufio.NewReaderSize(io.NewSectionReader(d.r, sectionOff, end-sectionOff), 1<<16)
	var magic [4]byte
	if _, err := io.ReadFull(sr, magic[:]); err != nil {
		return nil, fmt.Errorf("scdisk: weight section: %w", err)
	}
	if magic != weightMagic {
		return nil, fmt.Errorf("scdisk: bad weight magic %q", magic[:])
	}
	wm, err := binary.ReadUvarint(sr)
	if err != nil {
		return nil, fmt.Errorf("scdisk: weight count: %w", err)
	}
	if int64(wm) != int64(d.m) {
		return nil, fmt.Errorf("scdisk: weight section lists %d sets, header %d", wm, d.m)
	}
	// Exact-length check before allocating: the section must hold precisely m
	// weights — a short section must not zero-fill, a long one must not skew
	// which byte span each set's weight is read from.
	expect := int64(len(weightMagic)+uvarintLen(wm)) + 8*int64(d.m)
	if got := end - sectionOff; got != expect {
		return nil, fmt.Errorf("scdisk: weight section is %d bytes, %d sets need %d", got, d.m, expect)
	}
	weights := make([]float64, d.m)
	var b [8]byte
	for i := range weights {
		if _, err := io.ReadFull(sr, b[:]); err != nil {
			return nil, fmt.Errorf("scdisk: weight %d: %w", i, err)
		}
		weights[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	if err := setcover.ValidateWeights(weights, d.m); err != nil {
		return nil, fmt.Errorf("scdisk: weight section: %w", err)
	}
	return weights, nil
}

// uvarintLen returns the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// loadWeights detects the SCWT trailer at the end of the file and, when
// present, decodes the section. It returns the absolute offset at which the
// weight section begins — the effective end of the file for the SCIX
// detection that follows — or d.size when there is no weight section.
// A detected-but-invalid section is an open error, never a silent downgrade
// to unit weights (see the package comment above).
func (d *Repo) loadWeights() (int64, error) {
	if d.size < d.dataOff+trailerLen {
		return d.size, nil
	}
	var tr [trailerLen]byte
	if err := d.readFull(tr[:], d.size-trailerLen); err != nil {
		return 0, fmt.Errorf("scdisk: trailer: %w", err)
	}
	if !bytes.Equal(tr[8:], weightTrailerMagic[:]) {
		return d.size, nil
	}
	sectionOff := int64(binary.LittleEndian.Uint64(tr[:8]))
	weights, err := d.parseWeights(sectionOff)
	if err != nil {
		return 0, err
	}
	// A zero-set family has no costs to carry: its validated section leaves
	// the repository unweighted, so HasWeights agrees with WeightRange.
	if len(weights) > 0 {
		d.weights = weights
	}
	return sectionOff, nil
}

// HasWeights reports whether the file carries the SCWT per-set weight
// section (the weighted problem) with at least one set.
func (d *Repo) HasWeights() bool { return d.weights != nil }

// Weight implements stream.Weighted: the decoded cost of set id, or 1 when
// the file carries no weight section. id must be in [0, m) on weighted
// repositories.
func (d *Repo) Weight(id int) float64 {
	if d.weights == nil {
		return 1
	}
	return d.weights[id]
}

// Weights returns the decoded per-set cost vector, nil when the file carries
// none. The slice is the repository's own — callers must not mutate it.
func (d *Repo) Weights() []float64 { return d.weights }

// WeightRange returns the smallest and largest decoded weight. ok is false
// when the file carries no weight section (or m == 0).
func (d *Repo) WeightRange() (lo, hi float64, ok bool) {
	if len(d.weights) == 0 {
		return 0, 0, false
	}
	lo, hi = d.weights[0], d.weights[0]
	for _, w := range d.weights[1:] {
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	return lo, hi, true
}
