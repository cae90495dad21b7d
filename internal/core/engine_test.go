package core

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/scdisk"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// The engine's determinism contract for the fields only IterSetCover's own
// Result carries: for a fixed seed, every worker count and batch size, on
// the in-memory repository and on an SCB1 file of it, returns the Result
// that Workers = 1 returns in memory. That is the same Cover, Passes and
// SpaceWords, and also the same BestK, Iterations and
// StoredProjectionWordsPeak. The conformance matrix (internal/algos)
// covers the other backends and engine settings.
func TestEngineWorkersIdenticalResults(t *testing.T) {
	mem, _ := plantedRepo(t, 512, 1024, 8, 51)
	path := filepath.Join(t.TempDir(), "planted.scb")
	if err := scdisk.WriteFile(path, mem.Instance()); err != nil {
		t.Fatal(err)
	}
	disk, err := scdisk.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"delta=0.5", Options{Delta: 0.5, Seed: 7}},
		{"delta=0.25", Options{Delta: 0.25, Seed: 11}},
		{"partial", Options{Delta: 0.5, Seed: 17, PartialEps: 0.1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(repo stream.Repository, workers, batch int) Result {
				opts := tc.opts
				opts.Engine = engine.Options{Workers: workers, BatchSize: batch}
				res, err := IterSetCover(repo, opts)
				if err != nil {
					t.Fatalf("%T at workers=%d: %v", repo, workers, err)
				}
				return res
			}
			want := run(mem, 1, 1)
			for _, repo := range []stream.Repository{mem, disk} {
				for _, cfg := range [][2]int{{1, 1}, {runtime.GOMAXPROCS(0), 0}, {3, 5}, {16, 1024}} {
					if got := run(repo, cfg[0], cfg[1]); !reflect.DeepEqual(got, want) {
						t.Errorf("%T at workers=%d/batch=%d: %#v, want %#v", repo, cfg[0], cfg[1], got, want)
					}
				}
			}
		})
	}
}

// Pass-sharing invariant under the parallel engine: with Workers > 1 the
// pass count is still exactly 2·ceil(1/δ). A size-1 sampler guarantees no
// guess can finish within the iteration budget (each iteration picks O(1)
// sets), so the budget is fully spent and the count is exact, not just an
// upper bound.
func TestEnginePassBudgetExact(t *testing.T) {
	one := func(k, n, m, uncovered int) int { return 1 }
	for _, delta := range []float64{0.5, 0.25} {
		iters := int(math.Ceil(1 / delta))

		repo, _ := plantedRepo(t, 512, 1024, 8, 51)
		_, err := IterSetCover(repo, Options{
			Delta: delta, Seed: 1, Sizer: one,
			Engine: engine.Options{Workers: runtime.GOMAXPROCS(0)},
		})
		if !errors.Is(err, ErrNoCover) {
			t.Fatalf("delta=%v: size-1 sampler should not finish, got err=%v", delta, err)
		}
		if got, want := repo.Passes(), 2*iters; got != want {
			t.Fatalf("delta=%v: passes = %d, want exactly %d", delta, got, want)
		}
	}
}

// The determinism contract also holds on the failure path: an infeasible
// instance (one element in no set) makes guesses fail in solveOffline, whose
// iteration memory must still be released (Lemma 2.2) and whose accounting
// must not depend on the worker count.
func TestEngineWorkersIdenticalOnInfeasible(t *testing.T) {
	mk := func() *stream.SliceRepo {
		in := &setcover.Instance{N: 64}
		for i := 0; i < 62; i++ {
			in.Sets = append(in.Sets, setcover.Set{Elems: []setcover.Elem{
				int32(i), int32((i + 1) % 62),
			}})
		}
		in.Normalize() // elements 62 and 63 are uncoverable
		return stream.NewSliceRepo(in)
	}
	run := func(workers int) Result {
		res, err := IterSetCover(mk(), Options{
			Delta: 0.25, Seed: 9,
			Engine: engine.Options{Workers: workers, BatchSize: 8},
		})
		if !errors.Is(err, ErrNoCover) {
			t.Fatalf("workers=%d: want ErrNoCover, got %v", workers, err)
		}
		return res
	}
	seq, par := run(1), run(8)
	if seq.Passes != par.Passes || seq.SpaceWords != par.SpaceWords {
		t.Fatalf("failure path diverged: passes %d/%d space %d/%d",
			seq.Passes, par.Passes, seq.SpaceWords, par.SpaceWords)
	}
}

// A FuncRepo (generate-on-the-fly, no backing slice) must work as an engine
// source at Workers > 1, and produce the same cover as Workers = 1: the
// engine's single reader goroutine is the only consumer of the pass, so the
// generator is never called concurrently.
func TestEngineFuncRepoSource(t *testing.T) {
	const n, blockSize = 256, 16
	const k = n / blockSize
	mk := func() *stream.FuncRepo {
		return stream.NewFuncRepo(n, k+100, func(id int) setcover.Set {
			var es []setcover.Elem
			if id < k {
				for e := id * blockSize; e < (id+1)*blockSize; e++ {
					es = append(es, setcover.Elem(e))
				}
			} else {
				for i := 0; i < blockSize; i++ {
					es = append(es, setcover.Elem((id*31+i*17)%n))
				}
			}
			s := &setcover.Instance{N: n, Sets: []setcover.Set{{Elems: es}}}
			s.Normalize()
			return s.Sets[0]
		})
	}
	run := func(workers int) Result {
		opts := Options{Delta: 0.5, Seed: 3, Engine: engine.Options{Workers: workers, BatchSize: 32}}
		res, err := IterSetCover(mk(), opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	seq, par := run(1), run(8)
	if !reflect.DeepEqual(seq.Cover, par.Cover) || seq.Passes != par.Passes || seq.SpaceWords != par.SpaceWords {
		t.Fatalf("FuncRepo: parallel run diverged: %v/%d/%d vs %v/%d/%d",
			par.Cover, par.Passes, par.SpaceWords, seq.Cover, seq.Passes, seq.SpaceWords)
	}
}
