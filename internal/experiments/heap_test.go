package experiments

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/offline"
	"repro/internal/scdisk"
	"repro/internal/stream"
)

// TestLiveHeapTracksSpaceMeter checks the space meter against real memory
// for the two algorithms that keep a projection store: the live heap at
// every pass end, above a baseline taken before the solve, stays within
// 2× the peak words the meter charged (8 bytes a word). The lower bounds
// this repository reproduces are stated in that meter, so a store whose
// heap outgrows its charge would make the space column meaningless.
//
// The input is E18's family (planted, m = 2n, OPT = 16), read from an SCB1
// file so the repository itself holds no sets in the heap. One warm-up pass
// fills the decode pool, stream infrastructure the meter does not charge,
// before the baseline is taken.
//
// The test reads the process-wide live heap, so it must not run in
// parallel with other tests.
func TestLiveHeapTracksSpaceMeter(t *testing.T) {
	const bound = 2.0
	solvers := []struct {
		name  string
		solve func(stream.Repository, engine.Options) (int64, error)
	}{
		{"iter δ=1/3", func(repo stream.Repository, eng engine.Options) (int64, error) {
			res, err := core.IterSetCover(repo, core.Options{Delta: 1.0 / 3.0, Offline: offline.Greedy{}, Seed: 1, Engine: eng})
			return res.SpaceWords, err
		}},
		{"dimv14 δ=1/2", func(repo stream.Repository, eng engine.Options) (int64, error) {
			st, err := baseline.DIMV14(repo, baseline.DIMV14Options{Delta: 0.5, Seed: 1}, eng)
			return st.SpaceWords, err
		}},
	}
	dir := t.TempDir()
	for _, n := range []int{1024, 2048, 4096} {
		path := filepath.Join(dir, fmt.Sprintf("e18-%d.scb", n))
		in, _, _, err := gen.Planted(gen.PlantedConfig{N: n, M: 2 * n, K: 16, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := scdisk.WriteFile(path, in); err != nil {
			t.Fatal(err)
		}
		for _, s := range solvers {
			heap, words := peakLiveHeap(t, path, s.solve)
			ratio := float64(heap) / float64(8*words)
			t.Logf("n=%d %s: live heap %d B, meter %d words, ratio %.2f", n, s.name, heap, words, ratio)
			if ratio > bound {
				t.Errorf("n=%d %s: live heap is %.2f× the space meter, want ≤ %.1f×", n, s.name, ratio, bound)
			}
		}
	}
}

// peakLiveHeap solves the SCB1 file at path at Workers 1 and returns the
// peak live heap above the pre-solve baseline, sampled after a GC at every
// pass end, with the solve's charged space words.
func peakLiveHeap(t *testing.T, path string, solve func(stream.Repository, engine.Options) (int64, error)) (peak uint64, words int64) {
	t.Helper()
	repo, err := scdisk.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	eng := engine.Options{Workers: 1}
	if err := engine.New(eng).Run(repo); err != nil {
		t.Fatal(err)
	}
	base := liveHeapBytes()
	eng.Tracer = obs.TracerFunc(func(obs.PassTrace) {
		if h := liveHeapBytes(); h > base {
			peak = max(peak, h-base)
		}
	})
	words, err = solve(repo, eng)
	if err != nil {
		t.Fatal(err)
	}
	return peak, words
}

// liveHeapBytes collects garbage and returns the bytes of live heap objects
// the collection marked.
func liveHeapBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
