package engine

import (
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/scdisk"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// spanSegRepo wraps a segmentable repository and records every chunk decode,
// so tests observe which mode the engine actually picked: the chunked
// parallel mode shows up as many chunk-sized spans.
type spanSegRepo struct {
	stream.Repository
	mu    sync.Mutex
	spans [][2]int
}

func (r *spanSegRepo) BeginSegmented() (stream.SegmentSource, bool) {
	src, ok := r.Repository.(stream.SegmentedRepository).BeginSegmented()
	if !ok {
		return nil, false
	}
	return &spanSegSource{SegmentSource: src, repo: r}, true
}

type spanSegSource struct {
	stream.SegmentSource
	repo *spanSegRepo
}

func (s *spanSegSource) DecodeSegment(start, end int, sets []setcover.Set, arena []setcover.Elem) ([]setcover.Set, []setcover.Elem, error) {
	s.repo.mu.Lock()
	s.repo.spans = append(s.repo.spans, [2]int{start, end})
	s.repo.mu.Unlock()
	return s.SegmentSource.DecodeSegment(start, end, sets, arena)
}

// beginCountingRepo counts the passes a SliceRepo starts through Begin.
type beginCountingRepo struct {
	*stream.SliceRepo
	begins int
}

func (r *beginCountingRepo) Begin() stream.Reader {
	r.begins++
	return r.SliceRepo.Begin()
}

// A SliceRepo pass at Workers > 1 goes through Begin: handing out an
// in-memory set is a header copy, so the repository offers no segmented
// passes and chunked parallel decode has nothing to win. The pass counts
// once and traces the sequential mode.
func TestSliceRepoPassGoesThroughBegin(t *testing.T) {
	const m = 1000
	repo := &beginCountingRepo{SliceRepo: stream.NewSliceRepo(testInstance(32, m))}
	tr := &obs.Recorder{}
	r := &recorder{}
	if err := New(Options{Workers: 4, BatchSize: 64, Tracer: tr}).Run(repo, r); err != nil {
		t.Fatal(err)
	}
	if repo.begins != 1 || repo.Passes() != 1 {
		t.Fatalf("begins=%d passes=%d, want 1/1", repo.begins, repo.Passes())
	}
	if got := tr.Passes(); len(got) != 1 || got[0].Segmented {
		t.Fatalf("trace records %+v, want one with Segmented false", got)
	}
	r.verify(t, m, 64)
}

// A disk-backed pass (real varint decode work) must keep the chunked
// parallel path at Workers > 1.
func TestEngineKeepsSegmentationForDiskRepo(t *testing.T) {
	const m = 600
	path := filepath.Join(t.TempDir(), "cost.scb")
	if err := scdisk.WriteFile(path, testInstance(32, m)); err != nil {
		t.Fatal(err)
	}
	d, err := scdisk.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	repo := &spanSegRepo{Repository: d}
	r := &recorder{}
	if err := New(Options{Workers: 4, BatchSize: 64}).Run(repo, r); err != nil {
		t.Fatal(err)
	}
	if len(repo.spans) < 2 {
		t.Fatalf("disk source read through %d spans (%v), want chunked parallel decode", len(repo.spans), repo.spans)
	}
	// The spans must tile [0, m) exactly (strided ownership hands them out
	// in decoder order; sort-free check via coverage count).
	covered := 0
	for _, sp := range repo.spans {
		covered += sp[1] - sp[0]
	}
	if covered != m {
		t.Fatalf("spans cover %d of %d sets", covered, m)
	}
	if d.Passes() != 1 {
		t.Fatalf("segmented pass counted %d passes, want 1", d.Passes())
	}
	r.verify(t, m, 64)
}
