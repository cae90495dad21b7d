package stream

import (
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

// BeginSegmented must count exactly one pass and its chunk decodes must
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
		var sets []setcover.Set
		for _, bounds := range [][2]int{{0, 3}, {3, 4}, {4, 10}, {10, 10}} {
			var err error
			if sets, _, err = src.DecodeSegment(bounds[0], bounds[1], sets[:0], nil); err != nil {
				t.Fatalf("%s: chunk %v: %v", name, bounds, err)
			}
			for _, s := range sets {
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
			t.Fatalf("%s: chunk decodes moved the pass counter to %d", name, r.Passes())
		}
	}
}

// A chunk decode must append exactly the sets [start, end) to the slice it
// is handed, stopping at its end bound, not at the end of the family, and
// hand the arena back untouched when the sets carry their own storage.
func TestSegmentReadersRespectBounds(t *testing.T) {
	for name, r := range segmentedRepos() {
		src, _ := r.(SegmentedRepository).BeginSegmented()
		arena := make([]setcover.Elem, 0, 4)
		sets, gotArena, err := src.DecodeSegment(2, 5, make([]setcover.Set, 0, 8), arena)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(sets) != 3 {
			t.Fatalf("%s: chunk [2,5) decoded %d sets, want 3", name, len(sets))
		}
		for i, s := range sets {
			if s.ID != 2+i {
				t.Fatalf("%s: chunk position %d carries set %d", name, i, s.ID)
			}
		}
		if cap(gotArena) != cap(arena) {
			t.Fatalf("%s: arena capacity %d came back as %d", name, cap(arena), cap(gotArena))
		}
	}
}
