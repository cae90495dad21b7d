package stream

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/setcover"
)

func inst() *setcover.Instance {
	in := &setcover.Instance{N: 4, Sets: []setcover.Set{
		{Elems: []setcover.Elem{0, 1}},
		{Elems: []setcover.Elem{2}},
		{Elems: []setcover.Elem{3}},
	}}
	in.Normalize()
	return in
}

func TestSliceRepoBasics(t *testing.T) {
	r := NewSliceRepo(inst())
	if r.UniverseSize() != 4 || r.NumSets() != 3 {
		t.Fatalf("dims = %d/%d", r.UniverseSize(), r.NumSets())
	}
	if r.Passes() != 0 {
		t.Fatalf("Passes = %d before any Begin", r.Passes())
	}
}

func TestPassCountingAndOrder(t *testing.T) {
	r := NewSliceRepo(inst())
	for p := 1; p <= 3; p++ {
		it := r.Begin()
		if r.Passes() != p {
			t.Fatalf("Passes = %d, want %d", r.Passes(), p)
		}
		if ids := passIDs(t, it, 2); !slices.Equal(ids, []int{0, 1, 2}) {
			t.Fatalf("pass %d yielded %v", p, ids)
		}
		// NextBatch after exhaustion keeps returning 0.
		if n := it.NextBatch(make([]setcover.Set, 1)); n != 0 {
			t.Fatalf("NextBatch after exhaustion returned %d", n)
		}
	}
}

func TestResetPasses(t *testing.T) {
	r := NewSliceRepo(inst())
	r.Begin()
	r.Begin()
	r.ResetPasses()
	if r.Passes() != 0 {
		t.Fatalf("Passes after reset = %d", r.Passes())
	}
}

func TestTrackerGrowShrinkPeak(t *testing.T) {
	tr := NewTracker()
	tr.Grow(10)
	tr.Grow(5)
	if tr.Current() != 15 || tr.Peak() != 15 {
		t.Fatalf("cur=%d peak=%d", tr.Current(), tr.Peak())
	}
	tr.Shrink(12)
	if tr.Current() != 3 || tr.Peak() != 15 {
		t.Fatalf("cur=%d peak=%d after shrink", tr.Current(), tr.Peak())
	}
	tr.Grow(4)
	if tr.Peak() != 15 {
		t.Fatalf("peak should stay 15, got %d", tr.Peak())
	}
	tr.FreeAll()
	if tr.Current() != 0 || tr.Peak() != 15 {
		t.Fatalf("FreeAll: cur=%d peak=%d", tr.Current(), tr.Peak())
	}
}

func TestTrackerPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative grow":   func() { NewTracker().Grow(-1) },
		"negative shrink": func() { NewTracker().Shrink(-1) },
		"underflow":       func() { NewTracker().Shrink(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTrackerMax(t *testing.T) {
	a, b := NewTracker(), NewTracker()
	a.Grow(5)
	b.Grow(9)
	a.Max(b)
	if a.Peak() != 9 {
		t.Fatalf("Max: peak=%d, want 9", a.Peak())
	}
	b2 := NewTracker()
	b2.Grow(1)
	a.Max(b2)
	if a.Peak() != 9 {
		t.Fatalf("Max with smaller peak changed peak to %d", a.Peak())
	}
}

func TestTrackerConcurrent(t *testing.T) {
	// A Grow-only phase from many goroutines (the engine's fan-out shape)
	// must end with cur == sum of charges and peak == cur, regardless of
	// interleaving. Run under -race this also proves memory safety.
	const goroutines, grows = 8, 1000
	tr := NewTracker()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < grows; i++ {
				tr.Grow(3)
			}
		}()
	}
	wg.Wait()
	want := int64(goroutines * grows * 3)
	if tr.Current() != want || tr.Peak() != want {
		t.Fatalf("cur=%d peak=%d, want both %d", tr.Current(), tr.Peak(), want)
	}
	// Concurrent Shrinks back to zero must not underflow or move the peak.
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < grows; i++ {
				tr.Shrink(3)
			}
		}()
	}
	wg.Wait()
	if tr.Current() != 0 || tr.Peak() != want {
		t.Fatalf("after shrink: cur=%d peak=%d, want 0/%d", tr.Current(), tr.Peak(), want)
	}
}

// passIDs drains a pass size sets at a time and returns the IDs it yielded.
func passIDs(t *testing.T, it Reader, size int) []int {
	t.Helper()
	var ids []int
	buf := make([]setcover.Set, size)
	for n := it.NextBatch(buf); n > 0; n = it.NextBatch(buf) {
		for _, s := range buf[:n] {
			ids = append(ids, s.ID)
		}
	}
	if err := it.Err(); err != nil {
		t.Fatalf("full pass reported %v", err)
	}
	return ids
}

func TestBatchReaders(t *testing.T) {
	// Both repository readers yield the whole stream in order at every batch
	// size, and a full pass reports no error.
	repos := map[string]Repository{
		"slice": NewSliceRepo(inst()),
		"func": NewFuncRepo(4, 3, func(id int) setcover.Set {
			return setcover.Set{Elems: []setcover.Elem{int32(id)}}
		}),
	}
	for name, r := range repos {
		for size := 1; size <= 4; size++ {
			if ids := passIDs(t, r.Begin(), size); !slices.Equal(ids, []int{0, 1, 2}) {
				t.Fatalf("%s: batch size %d yielded %v", name, size, ids)
			}
		}
	}
}

func TestWordCharges(t *testing.T) {
	if WordsForElems(0) != 0 || WordsForElems(1) != 1 || WordsForElems(2) != 1 || WordsForElems(3) != 2 {
		t.Fatal("WordsForElems wrong")
	}
	if WordsForBitset(0) != 0 || WordsForBitset(1) != 1 || WordsForBitset(64) != 1 || WordsForBitset(65) != 2 {
		t.Fatal("WordsForBitset wrong")
	}
	if WordsForIDs(7) != 7 {
		t.Fatal("WordsForIDs wrong")
	}
}

func TestConcurrentReadersIndependent(t *testing.T) {
	// Two interleaved passes must not share cursor state (the "parallel
	// guesses" of iterSetCover rely on this when they share a physical scan).
	r := NewSliceRepo(inst())
	a, b := r.Begin(), r.Begin()
	next := func(it Reader) int {
		var one [1]setcover.Set
		it.NextBatch(one[:])
		return one[0].ID
	}
	if next(a) != 0 || next(b) != 0 {
		t.Fatal("each reader should start at set 0")
	}
	if next(a) != 1 {
		t.Fatal("reader a should advance independently")
	}
	if next(b) != 1 {
		t.Fatal("reader b should advance independently")
	}
	if r.Passes() != 2 {
		t.Fatalf("Passes = %d, want 2", r.Passes())
	}
}
