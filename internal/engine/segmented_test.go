package engine

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/setcover"
	"repro/internal/stream"
)

// segRepo streams an instance through a FuncRepo: a segmentable repository
// over the same family.
func segRepo(in *setcover.Instance) *stream.FuncRepo {
	return stream.NewFuncRepo(in.N, len(in.Sets), func(id int) setcover.Set { return in.Sets[id] })
}

// countingSegRepo wraps a segmentable repository and records which begin
// path the engine chose, so tests can assert the mode selection, not just
// the results.
type countingSegRepo struct {
	*stream.FuncRepo
	plainBegins int
	segBegins   int
}

func (r *countingSegRepo) Begin() stream.Reader {
	r.plainBegins++
	return r.FuncRepo.Begin()
}

func (r *countingSegRepo) BeginSegmented() (stream.SegmentSource, bool) {
	r.segBegins++
	return r.FuncRepo.BeginSegmented()
}

// The segmented decode path must deliver the exact sequential stream to
// every observer — same sets, same order, bracketed lifecycle — at every
// workers/batch combination, including chunk sizes that do not divide m.
func TestSegmentedDecodeDeliversStreamInOrder(t *testing.T) {
	const m = 1000
	for _, workers := range []int{2, 3, 7} {
		for _, batchSize := range []int{1, 17, 256, 4096} {
			name := fmt.Sprintf("workers=%d/batch=%d", workers, batchSize)
			repo := &countingSegRepo{FuncRepo: segRepo(testInstance(64, m))}
			e := New(Options{Workers: workers, BatchSize: batchSize})
			obs := []*recorder{{}, {}}
			if err := e.Run(repo, obs[0], obs[1]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if repo.segBegins != 1 || repo.plainBegins != 0 {
				t.Fatalf("%s: begin paths seg=%d plain=%d, want segmented exactly once",
					name, repo.segBegins, repo.plainBegins)
			}
			if repo.Passes() != 1 {
				t.Fatalf("%s: segmented Run cost %d passes, want 1", name, repo.Passes())
			}
			for _, r := range obs {
				r.verify(t, m, batchSize)
			}
		}
	}
}

// Workers = 1 and DisableSegmented must both keep the single-reader path.
func TestSegmentedModeSelection(t *testing.T) {
	for name, opts := range map[string]Options{
		"workers=1": {Workers: 1},
		"disabled":  {Workers: 4, DisableSegmented: true},
	} {
		repo := &countingSegRepo{FuncRepo: segRepo(testInstance(16, 100))}
		r := &recorder{}
		if err := New(opts).Run(repo, r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if repo.segBegins != 0 || repo.plainBegins != 1 {
			t.Fatalf("%s: begin paths seg=%d plain=%d, want plain exactly once",
				name, repo.segBegins, repo.plainBegins)
		}
		r.verify(t, 100, DefaultBatchSize)
	}
}

// errBoom is the sentinel decode failure injected by the failing readers.
var errBoom = errors.New("injected decode failure")

// failingSegReader wraps a reader and fails when it reaches set failAt.
type failingSegReader struct {
	inner  stream.Reader
	pos    int
	failAt int
	err    error
}

func (r *failingSegReader) Next() (setcover.Set, bool) {
	if r.err != nil {
		return setcover.Set{}, false
	}
	if r.pos == r.failAt {
		r.err = errBoom
		return setcover.Set{}, false
	}
	s, ok := r.inner.Next()
	if ok {
		r.pos++
	}
	return s, ok
}

func (r *failingSegReader) Err() error { return r.err }

// failingSegRepo injects the failure into both the sequential and the
// segmented begin paths.
type failingSegRepo struct {
	*stream.FuncRepo
	failAt int
}

func (r *failingSegRepo) Begin() stream.Reader {
	return &failingSegReader{inner: r.FuncRepo.Begin(), failAt: r.failAt}
}

func (r *failingSegRepo) BeginSegmented() (stream.SegmentSource, bool) {
	src, ok := r.FuncRepo.BeginSegmented()
	return failingSegSource{SegmentSource: src, failAt: r.failAt}, ok
}

type failingSegSource struct {
	stream.SegmentSource
	failAt int
}

// DecodeSegment fails a chunk holding set failAt, returning the sets before
// it the way a decoder that hit a corrupt set does.
func (s failingSegSource) DecodeSegment(start, end int, sets []setcover.Set, arena []setcover.Elem) ([]setcover.Set, []setcover.Elem, error) {
	if s.failAt < start || s.failAt >= end {
		return s.SegmentSource.DecodeSegment(start, end, sets, arena)
	}
	sets, arena, _ = s.SegmentSource.DecodeSegment(start, s.failAt, sets, arena)
	return sets, arena, errBoom
}

// A reader that fails mid-stream must poison the pass on every decode path:
// Run reports the error instead of letting observers' partial view pass for
// a full scan. The segmented variants also exercise decoder shutdown — no
// goroutine may hang on a reorder-window send after the pass is poisoned
// (the test would deadlock or leak under -race if one did).
func TestMidPassFailurePoisonsThePass(t *testing.T) {
	const m = 1000
	for _, tc := range []struct {
		name   string
		opts   Options
		failAt int
	}{
		{"sequential", Options{Workers: 1}, 500},
		{"segmented-early", Options{Workers: 4, BatchSize: 16}, 3},
		{"segmented-mid", Options{Workers: 4, BatchSize: 16}, 500},
		{"segmented-last-chunk", Options{Workers: 3, BatchSize: 64}, m - 1},
	} {
		repo := &failingSegRepo{FuncRepo: segRepo(testInstance(64, m)), failAt: tc.failAt}
		seen := 0
		err := New(tc.opts).Run(repo, Func(func(batch []setcover.Set) {
			for _, s := range batch {
				if s.ID != seen {
					t.Fatalf("%s: set %d delivered at position %d", tc.name, s.ID, seen)
				}
				seen++
			}
		}))
		if !errors.Is(err, errBoom) {
			t.Fatalf("%s: Run returned %v, want the injected decode failure", tc.name, err)
		}
		if !strings.Contains(err.Error(), "pass failed") {
			t.Fatalf("%s: error %q does not identify a failed pass", tc.name, err)
		}
		if seen > tc.failAt {
			t.Fatalf("%s: observer saw %d sets, beyond the failure at %d", tc.name, seen, tc.failAt)
		}
	}
}

// A zero-observer segmented pass must still drain fully (the model's
// partial-scan rule) and report failures.
func TestSegmentedZeroObservers(t *testing.T) {
	repo := &countingSegRepo{FuncRepo: segRepo(testInstance(16, 300))}
	if err := New(Options{Workers: 4, BatchSize: 32}).Run(repo); err != nil {
		t.Fatal(err)
	}
	if repo.segBegins != 1 || repo.Passes() != 1 {
		t.Fatalf("seg begins=%d passes=%d, want 1/1", repo.segBegins, repo.Passes())
	}

	bad := &failingSegRepo{FuncRepo: segRepo(testInstance(16, 300)), failAt: 100}
	if err := New(Options{Workers: 4, BatchSize: 32}).Run(bad); !errors.Is(err, errBoom) {
		t.Fatalf("zero-observer poisoned pass returned %v", err)
	}
}

// Segmented decode over a FuncRepo calls the generator from several
// goroutines; with a pure generator the delivered stream must still be the
// sequential one (this is the contract NewFuncRepo documents). Run under
// -race this also proves the engine itself adds no sharing.
func TestSegmentedFuncRepoSource(t *testing.T) {
	const n, m = 32, 777
	repo := stream.NewFuncRepo(n, m, func(id int) setcover.Set {
		return setcover.Set{Elems: []setcover.Elem{int32(id % n), int32((id*3 + 1) % n)}}
	})
	e := New(Options{Workers: 5, BatchSize: 13})
	obs := []*recorder{{}, {}, {}}
	if err := e.Run(repo, obs[0], obs[1], obs[2]); err != nil {
		t.Fatal(err)
	}
	for _, r := range obs {
		r.verify(t, m, 13)
	}
	if repo.Passes() != 1 {
		t.Fatalf("Passes = %d, want 1", repo.Passes())
	}
}

// arenaSegRepo decodes every chunk into the arena the engine passes in, the
// way scdisk does, and counts the chunks that arrive with an arena a
// previous chunk grew.
type arenaSegRepo struct {
	*stream.FuncRepo
	reused atomic.Int64
}

func (r *arenaSegRepo) BeginSegmented() (stream.SegmentSource, bool) {
	src, ok := r.FuncRepo.BeginSegmented()
	return &arenaSegSource{SegmentSource: src, repo: r}, ok
}

type arenaSegSource struct {
	stream.SegmentSource
	repo *arenaSegRepo
}

// PlanSegments cuts chunks of 1, 16, 3 and 9 sets in turn, so a batch
// straddles chunks and sometimes spans several.
func (s *arenaSegSource) PlanSegments(int) []int {
	b := []int{0}
	for i := 0; b[len(b)-1] < s.repo.NumSets(); i++ {
		b = append(b, min(b[len(b)-1]+[]int{1, 16, 3, 9}[i%4], s.repo.NumSets()))
	}
	return b
}

func (s *arenaSegSource) DecodeSegment(start, end int, sets []setcover.Set, arena []setcover.Elem) ([]setcover.Set, []setcover.Elem, error) {
	if cap(arena) > 0 {
		s.repo.reused.Add(1)
	}
	sets, _, err := s.SegmentSource.DecodeSegment(start, end, sets, nil)
	arena = arena[:0]
	for i, st := range sets {
		a := len(arena)
		arena = append(arena, st.Elems...)
		sets[i].Elems = arena[a:len(arena):len(arena)]
	}
	return sets, arena, err
}

// The engine turns Recycle calls into chunk-record releases: a record goes
// back to the pool, arena and all, only once every batch viewing it has been
// recycled. Batches of 7 straddle uneven chunks, several observers on several
// delivery goroutines recycle in racing order, and every observer must still
// read every set intact — a record released early would have its arena
// overwritten by a later chunk while a batch still views it. The second pass
// must decode into arenas the first pass released.
func TestSegmentedForwardsRecycle(t *testing.T) {
	const m = 500
	in := testInstance(16, m)
	repo := &arenaSegRepo{FuncRepo: segRepo(in)}
	e := New(Options{Workers: 3, BatchSize: 7})
	check := Func(func(batch []setcover.Set) {
		for _, s := range batch {
			if !slices.Equal(s.Elems, in.Sets[s.ID].Elems) {
				t.Errorf("set %d delivered as %v, want %v", s.ID, s.Elems, in.Sets[s.ID].Elems)
			}
		}
	})
	for pass := 0; pass < 2; pass++ {
		obs := []*recorder{{}, {}, {}}
		if err := e.Run(repo, obs[0], obs[1], check, obs[2]); err != nil {
			t.Fatal(err)
		}
		for _, r := range obs {
			r.verify(t, m, 7)
		}
	}
	if repo.reused.Load() == 0 {
		t.Fatal("no chunk decoded into a released arena: chunk records never went back to the pool")
	}
}
