package engine

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// settler reads a pass in stream order and records the IDs it sees. It can
// skip the sets [lo, hi) from the start of the pass and, once it has seen
// `after` sets, every range. CanSkip runs on decoder goroutines while
// Observe runs, so what it reads is atomic.
type settler struct {
	after, lo, hi int
	seen          atomic.Int64
	ids           []int
}

func (s *settler) BeginPass() { s.seen.Store(0); s.ids = s.ids[:0] }
func (s *settler) EndPass()   {}
func (s *settler) CanSkip(start, end int) bool {
	return s.seen.Load() >= int64(s.after) || s.lo <= start && end <= s.hi
}
func (s *settler) Observe(batch []setcover.Set) {
	for _, st := range batch {
		if s.seen.Load() >= int64(s.after) {
			return
		}
		s.ids = append(s.ids, st.ID)
		s.seen.Add(1)
	}
}

// checkingSegRepo serves a FuncRepo's segmented passes through a source
// whose VerifySegment matches every chunk (or none, noRecord) but one that
// fails to read at set failAt (-1: none), and counts which chunks were
// decoded and which checked.
type checkingSegRepo struct {
	*stream.FuncRepo
	failAt   int
	noRecord bool
	mu       sync.Mutex
	decoded  map[int]int // chunk start → decodes
	checked  map[int]int // chunk start → matched checks
}

func (r *checkingSegRepo) BeginSegmented() (stream.SegmentSource, bool) {
	src, ok := r.FuncRepo.BeginSegmented()
	return &checkingSegSource{SegmentSource: src, repo: r}, ok
}

type checkingSegSource struct {
	stream.SegmentSource
	repo *checkingSegRepo
}

func (s *checkingSegSource) DecodeSegment(start, end int, sets []setcover.Set, arena []setcover.Elem) ([]setcover.Set, []setcover.Elem, error) {
	s.repo.mu.Lock()
	s.repo.decoded[start]++
	s.repo.mu.Unlock()
	return s.SegmentSource.DecodeSegment(start, end, sets, arena)
}

func (s *checkingSegSource) VerifySegment(start, end int) (bool, error) {
	if start <= s.repo.failAt && s.repo.failAt < end {
		return false, errBoom
	}
	if s.repo.noRecord {
		return false, nil
	}
	s.repo.mu.Lock()
	s.repo.checked[start]++
	s.repo.mu.Unlock()
	return true, nil
}

// A segmented pass checks the chunks every observer can skip instead of
// decoding them, wherever they lie, and delivers none of them: the pass
// still drains all m sets, each chunk exactly once, the trace counts the
// checked sets as Skipped, each observer's batches jump exactly over the
// skipped chunks, and a chunk whose check fails to read fails the pass. A
// chunk the source cannot match is decoded once and still not delivered,
// and no decoder outlives the pass.
// Only ranges that every observer can skip are skipped, also when two
// observers run on separate delivery goroutines. Passes the skip must not
// touch — an observer that is not a Skipper, DisableSegmented, Workers 1 —
// deliver or decode every set up to where the observers settle.
func TestSettledPassChecksInsteadOfDecoding(t *testing.T) {
	const m, batch = 2000, 16
	type mid struct{ lo, hi int } // sets [lo, hi) one settler can skip from the start
	for _, tc := range []struct {
		name      string
		opts      Options
		failAt    int
		noRecord  bool
		plain     bool  // add an observer that is not a Skipper
		after     int   // sets each settler reads before it can skip every range
		mids      []mid // one settler per entry
		wantSkip  mid   // the sets the pass skips mid-stream: where every settler can skip
		wantError bool
	}{
		{"segmented", Options{Workers: 2, BatchSize: batch}, -1, false, false, 100, []mid{{}}, mid{}, false},
		{"segmented-3-workers", Options{Workers: 3, BatchSize: batch}, -1, false, false, 100, []mid{{}}, mid{}, false},
		{"segmented-check-fails", Options{Workers: 2, BatchSize: batch}, m - 1, false, false, 100, []mid{{}}, mid{}, true},
		{"non-settler-observer", Options{Workers: 1, BatchSize: batch}, -1, false, true, 100, []mid{{}}, mid{}, false},
		{"disable-segmented", Options{Workers: 2, BatchSize: batch, DisableSegmented: true}, -1, false, false, 100, []mid{{}}, mid{}, false},
		{"one-worker", Options{Workers: 1, BatchSize: batch}, -1, false, false, 100, []mid{{}}, mid{}, false},
		{"mid-range", Options{Workers: 2, BatchSize: batch}, -1, false, false, m, []mid{{320, 960}}, mid{320, 960}, false},
		{"mid-range-no-record", Options{Workers: 2, BatchSize: batch}, -1, true, false, m, []mid{{320, 960}}, mid{320, 960}, false},
		{"mid-range-check-fails", Options{Workers: 2, BatchSize: batch}, 500, false, false, m, []mid{{320, 960}}, mid{}, true},
		{"two-skippers", Options{Workers: 2, BatchSize: batch}, -1, false, false, m, []mid{{320, 960}, {640, 1280}}, mid{640, 960}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			repo := &checkingSegRepo{FuncRepo: segRepo(testInstance(64, m)), failAt: tc.failAt, noRecord: tc.noRecord,
				decoded: map[int]int{}, checked: map[int]int{}}
			rec := &obs.Recorder{}
			tc.opts.Tracer = rec
			var settlers []*settler
			var observers []Observer
			for _, r := range tc.mids {
				s := &settler{after: tc.after, lo: r.lo, hi: r.hi}
				settlers, observers = append(settlers, s), append(observers, s)
			}
			var all *recorder
			if tc.plain {
				all = &recorder{}
				observers = append(observers, all)
			}
			goroutines := runtime.NumGoroutine()
			err := New(tc.opts).Run(repo, observers...)
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Fatalf("%d goroutines after the pass, %d before: a decoder outlived it", n, goroutines)
			}
			if tc.wantError {
				if !errors.Is(err, ErrPassFailed) || !errors.Is(err, errBoom) {
					t.Fatalf("Run returned %v, want a failed pass wrapping the check's read error", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var wantIDs []int
			for id := 0; id < m && len(wantIDs) < tc.after; id++ {
				if id < tc.wantSkip.lo || id >= tc.wantSkip.hi {
					wantIDs = append(wantIDs, id)
				}
			}
			for i, s := range settlers {
				if !slices.Equal(s.ids, wantIDs) {
					t.Fatalf("settler %d saw %d sets, want %d: the sets before [%d,%d) and after it, in order",
						i, len(s.ids), len(wantIDs), tc.wantSkip.lo, tc.wantSkip.hi)
				}
			}
			if all != nil {
				all.verify(t, m, batch)
			}
			tr := rec.Passes()[0]
			if tr.Items != m {
				t.Fatalf("trace Items = %d, want %d", tr.Items, m)
			}
			segmented := !tc.opts.DisableSegmented && tc.opts.Workers > 1
			if checks := segmented && !tc.plain && !tc.noRecord; (tr.Skipped > 0) != checks {
				t.Fatalf("trace Skipped = %d, want checked chunks %v", tr.Skipped, checks)
			}
			checkedSets := 0
			for start, k := range repo.checked {
				if k != 1 || repo.decoded[start] != 0 {
					t.Fatalf("chunk at %d checked %d times and decoded %d times", start, k, repo.decoded[start])
				}
				checkedSets += min(batch, m-start)
			}
			if segmented {
				if len(repo.decoded)+len(repo.checked) != m/batch {
					t.Fatalf("%d chunks decoded and %d checked, want %d in all", len(repo.decoded), len(repo.checked), m/batch)
				}
				for start, k := range repo.decoded {
					if k != 1 {
						t.Fatalf("chunk at %d decoded %d times", start, k)
					}
				}
			}
			if checkedSets != tr.Skipped {
				t.Fatalf("checked chunks hold %d sets, trace Skipped = %d", checkedSets, tr.Skipped)
			}
			if tc.wantSkip != (mid{}) && !tc.noRecord {
				for start := range repo.checked {
					if start < tc.wantSkip.lo || start >= tc.wantSkip.hi {
						t.Fatalf("chunk at %d checked, outside the skipped sets [%d,%d)", start, tc.wantSkip.lo, tc.wantSkip.hi)
					}
				}
				if tr.Skipped != tc.wantSkip.hi-tc.wantSkip.lo {
					t.Fatalf("trace Skipped = %d, want the %d sets of [%d,%d)",
						tr.Skipped, tc.wantSkip.hi-tc.wantSkip.lo, tc.wantSkip.lo, tc.wantSkip.hi)
				}
			}
		})
	}
}
