package stream

import (
	"testing"

	"repro/internal/setcover"
)

func TestFuncRepoBasics(t *testing.T) {
	// Sets generated on the fly: set i covers {i, (i+1) mod n}.
	const n, m = 10, 10
	repo := NewFuncRepo(n, m, func(id int) setcover.Set {
		a, b := setcover.Elem(id), setcover.Elem((id+1)%n)
		if a > b {
			a, b = b, a
		}
		return setcover.Set{Elems: []setcover.Elem{a, b}}
	})
	if repo.UniverseSize() != n || repo.NumSets() != m {
		t.Fatal("dims wrong")
	}
	it := repo.Begin()
	count := 0
	buf := make([]setcover.Set, 3)
	for n := it.NextBatch(buf); n > 0; n = it.NextBatch(buf) {
		for _, s := range buf[:n] {
			if s.ID != count {
				t.Fatalf("set ID %d at position %d", s.ID, count)
			}
			if len(s.Elems) != 2 {
				t.Fatalf("set %d has %d elems", s.ID, len(s.Elems))
			}
			count++
		}
	}
	if count != m || repo.Passes() != 1 {
		t.Fatalf("count=%d passes=%d", count, repo.Passes())
	}
	repo.ResetPasses()
	if repo.Passes() != 0 {
		t.Fatal("reset failed")
	}
}

func TestFuncRepoRegeneratesPerPass(t *testing.T) {
	calls := 0
	repo := NewFuncRepo(4, 3, func(id int) setcover.Set {
		calls++
		return setcover.Set{Elems: []setcover.Elem{setcover.Elem(id)}}
	})
	for p := 0; p < 2; p++ {
		passIDs(t, repo.Begin(), 2)
	}
	if calls != 6 {
		t.Fatalf("generator called %d times, want 6 (3 sets × 2 passes)", calls)
	}
}

// A sequential-only FuncRepo must decline segmentation without counting a
// pass (the engine then falls back to Begin), and a STATEFUL generator —
// exactly what NewSequentialFuncRepo exists for — must see ids strictly in
// stream order on every pass.
func TestSequentialFuncRepoDeclinesSegmentation(t *testing.T) {
	const n, m = 8, 20
	lastID := -1 // stateful: would be racy under segmented decode
	repo := NewSequentialFuncRepo(n, m, func(id int) setcover.Set {
		if id != lastID+1 {
			t.Errorf("generator called with id %d after %d (out of order)", id, lastID)
		}
		lastID = id
		return setcover.Set{Elems: []setcover.Elem{setcover.Elem(id % n)}}
	})
	if _, ok := repo.BeginSegmented(); ok {
		t.Fatal("sequential FuncRepo agreed to segment")
	}
	if repo.Passes() != 0 {
		t.Fatalf("declined BeginSegmented counted %d passes", repo.Passes())
	}
	for pass := 0; pass < 2; pass++ {
		lastID = -1
		ids := passIDs(t, repo.Begin(), 7)
		for i, id := range ids {
			if id != i {
				t.Fatalf("pass %d: set ID %d at position %d", pass, id, i)
			}
		}
		if len(ids) != m {
			t.Fatalf("pass %d: saw %d of %d sets", pass, len(ids), m)
		}
	}
	if repo.Passes() != 2 {
		t.Fatalf("counted %d passes, want 2", repo.Passes())
	}
}

// The runtime guard: entering a sequential repository's generator from two
// goroutines at once must panic loudly, not race silently. The first call
// blocks inside gen on a channel; the overlapping second call must trip the
// guard deterministically.
func TestSequentialFuncRepoGuardPanicsOnConcurrentGen(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	repo := NewSequentialFuncRepo(4, 4, func(id int) setcover.Set {
		if id == 0 {
			close(entered)
			<-release
		}
		return setcover.Set{Elems: []setcover.Elem{setcover.Elem(id)}}
	})
	go func() {
		repo.Begin().NextBatch(make([]setcover.Set, 1)) // enters gen(0) and blocks until released
	}()
	<-entered

	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		repo.Begin().NextBatch(make([]setcover.Set, 1))
	}()
	p := <-panicked
	close(release)
	if p == nil {
		t.Fatal("concurrent generator entry did not panic")
	}
}
