package engine

import (
	"errors"
	"fmt"
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

func (s failingSegSource) Segment(start, end int) stream.Reader {
	return &failingSegReader{inner: s.SegmentSource.Segment(start, end), pos: start, failAt: s.failAt}
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

// recycleSegRepo tracks that every set delivered by a segmented pass comes
// back through Recycle — the engine must forward recycling through the
// reorder layer to the source, or a disk-backed repository's decode buffers
// would stop being reused.
type recycleSegRepo struct {
	*stream.FuncRepo
	recycled atomic.Int64
}

func (r *recycleSegRepo) BeginSegmented() (stream.SegmentSource, bool) {
	src, ok := r.FuncRepo.BeginSegmented()
	return &recycleSegSource{SegmentSource: src, repo: r}, ok
}

type recycleSegSource struct {
	stream.SegmentSource
	repo *recycleSegRepo
}

func (s *recycleSegSource) Recycle(sets []setcover.Set) {
	s.repo.recycled.Add(int64(len(sets)))
}

func TestSegmentedForwardsRecycle(t *testing.T) {
	const m = 500
	repo := &recycleSegRepo{FuncRepo: segRepo(testInstance(16, m))}
	if err := New(Options{Workers: 3, BatchSize: 64}).Run(repo, &recorder{}); err != nil {
		t.Fatal(err)
	}
	if got := repo.recycled.Load(); got != m {
		t.Fatalf("source got %d sets back through Recycle, want %d", got, m)
	}
}
