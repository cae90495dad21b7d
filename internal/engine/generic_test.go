package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/setcover"
	"repro/internal/stream"
)

// The generic path is exercised with an element type that is deliberately
// not setcover.Set: a word with its stream position.
type word struct {
	pos  int
	text string
}

// wordSource is a minimal Source[word]; truncateAt < len cuts the stream
// short WITHOUT an error surface (a silent truncation), failAt >= 0 ends the
// stream with a reported error at that position (a loud one).
type wordSource struct {
	words      []string
	truncateAt int // -1: none
	failAt     int // -1: none
	begins     int
}

func newWordSource(m int) *wordSource {
	s := &wordSource{truncateAt: -1, failAt: -1}
	for i := 0; i < m; i++ {
		s.words = append(s.words, fmt.Sprintf("w%04d", i))
	}
	return s
}

func (s *wordSource) NumItems() int { return len(s.words) }

func (s *wordSource) Begin() stream.Cursor[word] {
	s.begins++
	return &wordCursor{src: s}
}

type wordCursor struct {
	src *wordSource
	pos int
	err error
}

func (c *wordCursor) NextBatch(dst []word) int {
	dst = dst[:cap(dst)]
	n := 0
	for ; n < len(dst) && c.err == nil; n++ {
		if c.src.failAt >= 0 && c.pos == c.src.failAt {
			c.err = errBoom
			break
		}
		if c.src.truncateAt >= 0 && c.pos == c.src.truncateAt || c.pos >= len(c.src.words) {
			break
		}
		dst[n] = word{pos: c.pos, text: c.src.words[c.pos]}
		c.pos++
	}
	return n
}

func (c *wordCursor) Err() error { return c.err }

// wordRecorder checks the per-observer contract on the generic path, mirror
// of engine_test.go's recorder.
type wordRecorder struct {
	mu     sync.Mutex
	pos    []int
	begins int
	ends   int
	maxLen int
}

func (r *wordRecorder) BeginPass() { r.begins++ }
func (r *wordRecorder) EndPass()   { r.ends++ }
func (r *wordRecorder) Observe(batch []word) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(batch) > r.maxLen {
		r.maxLen = len(batch)
	}
	for _, w := range batch {
		r.pos = append(r.pos, w.pos)
	}
}

func (r *wordRecorder) verify(t *testing.T, m, batchSize int) {
	t.Helper()
	if len(r.pos) != m {
		t.Fatalf("observer saw %d of %d items", len(r.pos), m)
	}
	for i, p := range r.pos {
		if p != i {
			t.Fatalf("item %d arrived at position %d — stream order violated", p, i)
		}
	}
	if r.maxLen > batchSize {
		t.Fatalf("batch of %d exceeds configured size %d", r.maxLen, batchSize)
	}
	if r.begins != 1 || r.ends != 1 {
		t.Fatalf("lifecycle hooks: begins=%d ends=%d, want 1/1", r.begins, r.ends)
	}
}

// RunOver must uphold the engine contract for a non-Set element type: one
// Begin per call, in-order delivery to every observer, lifecycle brackets,
// at every workers/batch combination.
func TestRunOverDeliversStreamToEveryObserver(t *testing.T) {
	const m = 700
	for _, workers := range []int{1, 2, 4, 16} {
		for _, batchSize := range []int{1, 3, 64} {
			name := fmt.Sprintf("workers=%d/batch=%d", workers, batchSize)
			src := newWordSource(m)
			e := New(Options{Workers: workers, BatchSize: batchSize})
			obs := []*wordRecorder{{}, {}, {}, {}, {}}
			asObs := make([]ObserverOf[word], len(obs))
			for i := range obs {
				asObs[i] = obs[i]
			}
			if err := RunOver(e, src, asObs...); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if src.begins != 1 {
				t.Fatalf("%s: Run cost %d begins, want 1", name, src.begins)
			}
			for _, r := range obs {
				r.verify(t, m, batchSize)
			}
		}
	}
}

// A zero-observer generic pass still drains fully (the model's partial-scan
// rule applies regardless of element type).
func TestRunOverZeroObserversStillDrains(t *testing.T) {
	src := newWordSource(240)
	if err := RunOver[word](New(Options{Workers: 4, BatchSize: 16}), src); err != nil {
		t.Fatal(err)
	}
	if src.begins != 1 {
		t.Fatalf("begins = %d, want 1", src.begins)
	}
}

// FuncOf adapts closures on the generic path like Func does for sets.
func TestFuncOfAdapter(t *testing.T) {
	src := newWordSource(90)
	count := 0
	err := RunOver(New(Options{Workers: 1}), src, FuncOf[word](func(batch []word) {
		count += len(batch)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if count != 90 {
		t.Fatalf("FuncOf observer saw %d of 90 items", count)
	}
}

// A cursor that reports a mid-stream error must poison the generic pass:
// RunOver wraps ErrPassFailed and the concrete cause, and observers never
// see past the failure point.
func TestRunOverCursorErrorPoisonsThePass(t *testing.T) {
	for _, workers := range []int{1, 4} {
		src := newWordSource(500)
		src.failAt = 123
		seen := 0
		err := RunOver(New(Options{Workers: workers, BatchSize: 32}), src,
			FuncOf[word](func(batch []word) { seen += len(batch) }))
		if !errors.Is(err, ErrPassFailed) || !errors.Is(err, errBoom) {
			t.Fatalf("workers=%d: err = %v, want ErrPassFailed wrapping the cause", workers, err)
		}
		if seen > 123 {
			t.Fatalf("workers=%d: observer saw %d items, beyond the failure at 123", workers, seen)
		}
	}
}

// A stream that silently ends short of NumItems — no error surface at all —
// is still a failed pass. This is the net that catches truncated geometric
// instances, whose shape readers historically had no Err channel.
func TestRunOverShortStreamIsAFailedPass(t *testing.T) {
	for _, workers := range []int{1, 4} {
		src := newWordSource(500)
		src.truncateAt = 200
		err := RunOver(New(Options{Workers: workers, BatchSize: 32}), src,
			FuncOf[word](func(batch []word) {}))
		if !errors.Is(err, ErrPassFailed) {
			t.Fatalf("workers=%d: err = %v, want ErrPassFailed", workers, err)
		}
		if !strings.Contains(err.Error(), "200 of 500") {
			t.Fatalf("workers=%d: error %q does not name the truncation point", workers, err)
		}
	}
}

// Observers with disjoint state must produce identical results at every
// worker count on the generic path — same determinism contract as Run.
func TestRunOverDeterministicAcrossWorkers(t *testing.T) {
	const m = 1024
	sums := func(workers int) []int64 {
		src := newWordSource(m)
		out := make([]int64, 6)
		obs := make([]ObserverOf[word], len(out))
		for i := range out {
			i := i
			obs[i] = FuncOf[word](func(batch []word) {
				for _, w := range batch {
					out[i] += int64((w.pos + 1) * (i + 1))
				}
			})
		}
		if err := RunOver(New(Options{Workers: workers, BatchSize: 16}), src, obs...); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := sums(1)
	for _, workers := range []int{2, 3, 6, 16} {
		got := sums(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: observer %d sum %d != sequential %d", workers, i, got[i], want[i])
			}
		}
	}
}

// The concrete Run must also refuse a silently short set stream: NumSets
// promises m sets, and a healthy-looking early end is a truncation.
type shortSetRepo struct {
	*stream.SliceRepo
	claim int
}

func (r *shortSetRepo) NumSets() int { return r.claim }

func TestRunShortSetStreamIsAFailedPass(t *testing.T) {
	repo := &shortSetRepo{SliceRepo: stream.NewSliceRepo(testInstance(8, 100)), claim: 150}
	err := New(Options{Workers: 1}).Run(repo, Func(func([]setcover.Set) {}))
	if !errors.Is(err, ErrPassFailed) {
		t.Fatalf("err = %v, want ErrPassFailed for a stream ending at 100 of a claimed 150", err)
	}
}
