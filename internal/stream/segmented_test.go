package stream

import (
	"errors"
	"testing"

	"repro/internal/setcover"
)

// segmentedRepos builds the always-segmentable repository over a 10-set
// family.
func segmentedRepos() map[string]Repository {
	return map[string]Repository{
		"func": NewFuncRepo(16, 10, func(id int) setcover.Set {
			s := &setcover.Instance{N: 16, Sets: []setcover.Set{{Elems: []setcover.Elem{
				int32(id), int32((id + 3) % 16),
			}}}}
			s.Normalize()
			return s.Sets[0]
		}),
	}
}

// BeginSegmented must count exactly one pass and its Segment readers must
// reproduce, chunk by chunk, exactly the stream Begin yields.
func TestBeginSegmentedYieldsTheStreamInChunks(t *testing.T) {
	for name, r := range segmentedRepos() {
		sr, ok := r.(SegmentedRepository)
		if !ok {
			t.Fatalf("%s: repository does not implement SegmentedRepository", name)
		}
		src, ok := sr.BeginSegmented()
		if !ok {
			t.Fatalf("%s: BeginSegmented not available", name)
		}
		if r.Passes() != 1 {
			t.Fatalf("%s: BeginSegmented counted %d passes, want 1", name, r.Passes())
		}
		var ids []int
		for _, bounds := range [][2]int{{0, 3}, {3, 4}, {4, 10}, {10, 10}} {
			it := src.Segment(bounds[0], bounds[1])
			for {
				s, ok := it.Next()
				if !ok {
					break
				}
				ids = append(ids, s.ID)
			}
		}
		if len(ids) != 10 {
			t.Fatalf("%s: segmented pass yielded %d of 10 sets", name, len(ids))
		}
		for i, id := range ids {
			if id != i {
				t.Fatalf("%s: position %d carries set %d", name, i, id)
			}
		}
		if r.Passes() != 1 {
			t.Fatalf("%s: Segment calls moved the pass counter to %d", name, r.Passes())
		}
	}
}

// Segment readers must implement the BatchReader fast path and stop at their
// end bound, not at the end of the family.
func TestSegmentReadersRespectBounds(t *testing.T) {
	for name, r := range segmentedRepos() {
		src, _ := r.(SegmentedRepository).BeginSegmented()
		it := src.Segment(2, 5)
		br, ok := it.(BatchReader)
		if !ok {
			t.Fatalf("%s: segment reader does not implement BatchReader", name)
		}
		buf := make([]setcover.Set, 0, 8) // larger than the segment
		k := br.NextBatch(buf)
		if k != 3 {
			t.Fatalf("%s: NextBatch returned %d sets, want 3", name, k)
		}
		for i, s := range buf[:k] {
			if s.ID != 2+i {
				t.Fatalf("%s: batch position %d carries set %d", name, i, s.ID)
			}
		}
		if br.NextBatch(buf) != 0 {
			t.Fatalf("%s: exhausted segment yielded more sets", name)
		}
		if _, ok := it.Next(); ok {
			t.Fatalf("%s: exhausted segment Next returned ok", name)
		}
	}
}

// ReaderErr must report nil for readers that cannot fail and pass through the
// error of readers that do.
func TestReaderErr(t *testing.T) {
	if err := ReaderErr(&sliceReader{}); err != nil {
		t.Fatalf("sliceReader reported %v", err)
	}
	want := errors.New("boom")
	if err := ReaderErr(failingReader{err: want}); !errors.Is(err, want) {
		t.Fatalf("ReaderErr = %v, want %v", err, want)
	}
}

type failingReader struct{ err error }

func (f failingReader) Next() (setcover.Set, bool) { return setcover.Set{}, false }
func (f failingReader) Err() error                 { return f.err }
