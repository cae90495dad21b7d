package setcover

import (
	"errors"
	"io"
	"slices"
	"testing"
)

// FuzzDecodeSetBytes pins the property window-refilling readers
// (internal/scdisk) rely on: decoding a prefix data[:cut] either fails with
// io.ErrUnexpectedEOF or gives exactly the result of decoding all of data —
// the same acceptance, the same bytes consumed, the same elements (or the
// same error). Truncation may only be reported for a prefix shorter than the
// set that decoding all of data accepts, and accepted elements are always
// sorted-unique in [0, n). A reader that refills its window on truncation
// therefore decodes the same stream as one holding every byte.
func FuzzDecodeSetBytes(f *testing.F) {
	f.Add(AppendSetBinary(nil, []Elem{0, 3, 7, 100}), 101)
	f.Add(AppendSetBinary(nil, []Elem{}), 5)
	f.Add(AppendSetBinary(nil, []Elem{0}), 1)
	f.Add([]byte{}, 10)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, 1000)
	f.Add(AppendSetBinary(nil, []Elem{200, 70000, 70001}), 100000)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > MaxBinaryDim {
			return
		}
		full, size, fullErr := DecodeSetBytes(data, n, nil)
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
