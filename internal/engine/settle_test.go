package engine

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// settler reads a pass until it has seen `after` sets, then settles for the
// rest of it.
type settler struct {
	after, seen int
}

func (s *settler) BeginPass()    { s.seen = 0 }
func (s *settler) EndPass()      {}
func (s *settler) Settled() bool { return s.seen >= s.after }
func (s *settler) Observe(batch []setcover.Set) {
	for _, st := range batch {
		if s.Settled() {
			return
		}
		if st.ID != s.seen {
			panic("stream order violated")
		}
		s.seen++
	}
}

// checkingSegRepo serves a FuncRepo's segmented passes through a source
// whose VerifySegment matches every chunk but one that fails to read at
// set failAt (-1: none), and counts which chunks were decoded and which
// checked.
type checkingSegRepo struct {
	*stream.FuncRepo
	failAt  int
	mu      sync.Mutex
	decoded map[int]int // chunk start → decodes
	checked map[int]int // chunk start → matched checks
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
	s.repo.mu.Lock()
	s.repo.checked[start]++
	s.repo.mu.Unlock()
	return true, nil
}

// Once every observer is settled, a segmented pass stops delivering and
// checks the chunks it has not claimed yet instead of decoding them: the
// pass still drains all m sets, each chunk exactly once, the trace counts
// the checked sets as Skipped, and a chunk whose check fails to read fails
// the pass. Passes the skip must not touch — an observer that is not a
// Settler, DisableSegmented, Workers 1 — deliver or decode every set.
func TestSettledPassChecksInsteadOfDecoding(t *testing.T) {
	const m, batch = 2000, 16
	for _, tc := range []struct {
		name      string
		opts      Options
		failAt    int
		plain     bool // add an observer that is not a Settler
		wantSkip  bool
		wantError bool
	}{
		{"segmented", Options{Workers: 2, BatchSize: batch}, -1, false, true, false},
		{"segmented-3-workers", Options{Workers: 3, BatchSize: batch}, -1, false, true, false},
		{"segmented-check-fails", Options{Workers: 2, BatchSize: batch}, m - 1, false, true, true},
		{"non-settler-observer", Options{Workers: 1, BatchSize: batch}, -1, true, false, false},
		{"disable-segmented", Options{Workers: 2, BatchSize: batch, DisableSegmented: true}, -1, false, false, false},
		{"one-worker", Options{Workers: 1, BatchSize: batch}, -1, false, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			repo := &checkingSegRepo{FuncRepo: segRepo(testInstance(64, m)), failAt: tc.failAt,
				decoded: map[int]int{}, checked: map[int]int{}}
			rec := &obs.Recorder{}
			tc.opts.Tracer = rec
			s := &settler{after: 100}
			observers := []Observer{s}
			var all *recorder
			if tc.plain {
				all = &recorder{}
				observers = append(observers, all)
			}
			err := New(tc.opts).Run(repo, observers...)
			if tc.wantError {
				if !errors.Is(err, ErrPassFailed) || !errors.Is(err, errBoom) {
					t.Fatalf("Run returned %v, want a failed pass wrapping the check's read error", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if s.seen != s.after {
				t.Fatalf("settler saw %d sets, want %d", s.seen, s.after)
			}
			if all != nil {
				all.verify(t, m, batch)
			}
			tr := rec.Passes()[0]
			if tr.Items != m {
				t.Fatalf("trace Items = %d, want %d", tr.Items, m)
			}
			if (tr.Skipped > 0) != tc.wantSkip {
				t.Fatalf("trace Skipped = %d, want skipping %v", tr.Skipped, tc.wantSkip)
			}
			checkedSets := 0
			for start, k := range repo.checked {
				if k != 1 || repo.decoded[start] != 0 {
					t.Fatalf("chunk at %d checked %d times and decoded %d times", start, k, repo.decoded[start])
				}
				checkedSets += min(batch, m-start)
			}
			if !tc.opts.DisableSegmented && tc.opts.Workers > 1 {
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
		})
	}
}
