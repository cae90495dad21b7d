package setcover

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"
)

// decodeSetBytesRef is the element-at-a-time SCB1 set decoder that
// DecodeSetBytes replaced, kept as the oracle FuzzDecodeSetBytes holds the
// branch-free decoder to.
func decodeSetBytesRef(data []byte, n int, buf []Elem) ([]Elem, int, error) {
	count, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, 0, uvarintBytesErrRef("set size", k)
	}
	if count > uint64(n) {
		return nil, 0, fmt.Errorf("binary set size %d exceeds limit %d", count, n)
	}
	pos := k
	buf = buf[:0]
	if cap(buf) == 0 && count > 0 {
		buf = make([]Elem, 0, preallocCap(count))
	}
	prev := int64(-1)
	for j := uint64(0); j < count; j++ {
		var gap uint64
		// One-byte varints dominate delta-encoded dense sets; decode them
		// inline and fall back to the general decoder for the rest.
		if pos < len(data) && data[pos] < 0x80 {
			gap = uint64(data[pos])
			pos++
		} else {
			g, k := binary.Uvarint(data[pos:])
			if k <= 0 {
				return nil, 0, uvarintBytesErrRef("gap", k)
			}
			gap = g
			pos += k
		}
		if gap > uint64(n) {
			return nil, 0, fmt.Errorf("binary gap %d exceeds limit %d", gap, n)
		}
		e := prev + 1 + int64(gap)
		if e >= int64(n) {
			return nil, 0, fmt.Errorf("binary set: element %d out of range", e)
		}
		buf = append(buf, Elem(e))
		prev = e
	}
	return buf, pos, nil
}

// uvarintBytesErrRef maps binary.Uvarint's non-positive return to the
// matching decode error: 0 is truncation, negative is a 64-bit overflow.
func uvarintBytesErrRef(what string, k int) error {
	if k == 0 {
		return fmt.Errorf("binary %s: %w", what, io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("binary %s: varint overflows 64 bits", what)
}

// matchRef decodes data with DecodeSetBytes and with decodeSetBytesRef, each
// into its own buffer of capacity bufCap filled with stale elements (nil when
// bufCap is 0), and fails unless both give the same acceptance, bytes
// consumed, elements and error text.
func matchRef(t *testing.T, data []byte, n, bufCap int) {
	t.Helper()
	stale := func() []Elem {
		if bufCap == 0 {
			return nil
		}
		b := make([]Elem, bufCap)
		for i := range b {
			b[i] = -1
		}
		return b[:0]
	}
	got, gotK, gotErr := DecodeSetBytes(data, n, stale())
	want, wantK, wantErr := decodeSetBytesRef(data, n, stale())
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("n=%d cap=%d: err %v, reference %v", n, bufCap, gotErr, wantErr)
	}
	if errors.Is(gotErr, io.ErrUnexpectedEOF) != errors.Is(wantErr, io.ErrUnexpectedEOF) {
		t.Fatalf("n=%d cap=%d: truncation %v, reference %v", n, bufCap, gotErr, wantErr)
	}
	if gotK != wantK || !slices.Equal(got, want) {
		t.Fatalf("n=%d cap=%d: decoded %v in %d bytes, reference %v in %d", n, bufCap, got, gotK, want, wantK)
	}
}

// FuzzDecodeSetBytes holds DecodeSetBytes to decodeSetBytesRef on every
// input, with a nil buffer and with a reused one too small for the set, and
// pins the property window-refilling readers (internal/scdisk) rely on:
// decoding a prefix data[:cut] either fails with io.ErrUnexpectedEOF or
// gives exactly the result of decoding all of data — the same acceptance,
// the same bytes consumed, the same elements (or the same error). Truncation
// may only be reported for a prefix shorter than the set that decoding all
// of data accepts, and accepted elements are always sorted-unique in [0, n).
// A reader that refills its window on truncation therefore decodes the same
// stream as one holding every byte.
func FuzzDecodeSetBytes(f *testing.F) {
	f.Add(AppendSetBinary(nil, []Elem{0, 3, 7, 100}), 101)
	f.Add(AppendSetBinary(nil, []Elem{}), 5)
	f.Add(AppendSetBinary(nil, []Elem{0}), 1)
	f.Add([]byte{}, 10)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, 1000)
	f.Add(AppendSetBinary(nil, []Elem{200, 70000, 70001}), 100000)
	f.Add(AppendSetBinary(nil, sparseSet(rand.New(rand.NewSource(1)), 5000, 16)), 5000) // two-byte gaps
	f.Add([]byte{0x02, 0x80, 0x00, 0x85, 0x00}, 10)                                     // overlong gaps
	f.Add([]byte{0x09, 0x01, 0x02}, 100)                                                // count above the bytes present
	f.Add([]byte{0x02, 0x05, 0x85}, 1000)                                               // two-byte gap cut by the end
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > MaxBinaryDim {
			return
		}
		full, size, fullErr := DecodeSetBytes(data, n, nil)
		matchRef(t, data, n, 0)
		matchRef(t, data, n, len(full)/2+1)
		if fullErr == nil {
			for i, e := range full {
				if e < 0 || int(e) >= n || (i > 0 && e <= full[i-1]) {
					t.Fatalf("accepted elements %v are not sorted-unique in [0, %d)", full, n)
				}
			}
		}
		for cut := 0; cut <= len(data); cut++ {
			elems, k, err := DecodeSetBytes(data[:cut], n, nil)
			if errors.Is(err, io.ErrUnexpectedEOF) {
				if fullErr == nil && cut >= size {
					t.Fatalf("%d-byte prefix reported truncation, but the set ends at byte %d", cut, size)
				}
				continue
			}
			if (err == nil) != (fullErr == nil) {
				t.Fatalf("%d-byte prefix: err=%v, whole input: err=%v", cut, err, fullErr)
			}
			if err != nil {
				if err.Error() != fullErr.Error() {
					t.Fatalf("%d-byte prefix fails with %q, whole input with %q", cut, err, fullErr)
				}
				continue
			}
			if k != size || !slices.Equal(elems, full) {
				t.Fatalf("%d-byte prefix decoded %v in %d bytes, whole input %v in %d", cut, elems, k, full, size)
			}
		}
	})
}

// TestDecodeSetBytesReuse proves the buf-reuse contract: capacity is reused,
// contents are replaced.
func TestDecodeSetBytesReuse(t *testing.T) {
	enc := AppendSetBinary(nil, []Elem{1, 5, 9})
	buf := make([]Elem, 0, 16)
	elems, consumed, err := DecodeSetBytes(enc, 10, buf)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(enc) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(enc))
	}
	if &elems[:1][0] != &buf[:1][0] {
		t.Fatal("decode did not reuse the provided buffer")
	}
	want := []Elem{1, 5, 9}
	for i := range want {
		if elems[i] != want[i] {
			t.Fatalf("element %d: got %d want %d", i, elems[i], want[i])
		}
	}
}

// sparseSet draws k distinct sorted elements of [0, n).
func sparseSet(rng *rand.Rand, n, k int) []Elem {
	perm := rng.Perm(n)[:k]
	out := make([]Elem, k)
	for i, e := range perm {
		out[i] = Elem(e)
	}
	slices.Sort(out)
	return out
}

// BenchmarkDecodeSetBytes decodes a stream of sets into one reused buffer, as
// a pass does, and reports ns per decoded element. "sparse" is 16 of 5000
// elements per set (two-byte gaps, the light sets of the byte-skewed scan
// family); "dense" is 512 of 1024 (one-byte gaps).
func BenchmarkDecodeSetBytes(b *testing.B) {
	for _, c := range []struct {
		name    string
		n, k    int
		perPass int
	}{
		{"sparse", 5000, 16, 4096},
		{"dense", 1024, 512, 128},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var data []byte
			for i := 0; i < c.perPass; i++ {
				data = AppendSetBinary(data, sparseSet(rng, c.n, c.k))
			}
			buf := make([]Elem, 0, c.k)
			elems := 0
			for b.Loop() {
				for pos := 0; pos < len(data); {
					out, k, err := DecodeSetBytes(data[pos:], c.n, buf)
					if err != nil {
						b.Fatal(err)
					}
					pos += k
					elems += len(out)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(elems), "ns/elem")
		})
	}
}
