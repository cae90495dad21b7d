package core

import (
	"testing"

	"repro/internal/setcover"
	"repro/internal/stream"
)

// IterSetCover must work against any Repository — here a generate-on-the-fly
// source with no backing slice, which also proves the algorithm touches the
// stream only through the model's interface.
func TestIterSetCoverOnFuncRepo(t *testing.T) {
	const n = 512
	const blockSize = 32
	const k = n / blockSize // 16 planted blocks
	const noise = 400
	// Sets 0..k-1 are the planted partition; the rest are deterministic
	// pseudo-random subsets of size <= blockSize.
	repo := stream.NewFuncRepo(n, k+noise, func(id int) setcover.Set {
		var es []setcover.Elem
		if id < k {
			for e := id * blockSize; e < (id+1)*blockSize; e++ {
				es = append(es, setcover.Elem(e))
			}
			return setcover.Set{Elems: es}
		}
		// Deterministic noise: a strided slice of the universe.
		x := uint64(id)*2654435761 + 12345
		for i := 0; i < blockSize/2; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			es = append(es, setcover.Elem(x%uint64(n)))
		}
		s := setcover.Set{Elems: es}
		// Sort-unique inline (FuncRepo contract).
		norm := &setcover.Instance{N: n, Sets: []setcover.Set{s}}
		norm.Normalize()
		return norm.Sets[0]
	})

	res, err := IterSetCover(repo, Options{Delta: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Verify the cover by regenerating the chosen sets.
	covered := make([]bool, n)
	it := repo.Begin()
	chosen := make(map[int]bool, len(res.Cover))
	for _, id := range res.Cover {
		chosen[id] = true
	}
	batch := make([]setcover.Set, 64)
	for n := it.NextBatch(batch); n > 0; n = it.NextBatch(batch) {
		for _, s := range batch[:n] {
			if chosen[s.ID] {
				for _, e := range s.Elems {
					covered[e] = true
				}
			}
		}
	}
	for e, c := range covered {
		if !c {
			t.Fatalf("element %d uncovered", e)
		}
	}
	// Max set size is blockSize, so OPT = k; the cover should be O(rho) * k.
	if len(res.Cover) > 8*k {
		t.Fatalf("cover %d too large vs OPT %d", len(res.Cover), k)
	}
}
