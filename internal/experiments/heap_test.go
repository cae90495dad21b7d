package experiments

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/algos"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/offline"
	"repro/internal/scdisk"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// TestLiveHeapTracksSpaceMeter checks the space meter against real memory
// for every algorithm of the table (internal/algos): the live heap at
// every pass end, above a baseline, stays within 2× the peak words the
// meter charged (8 bytes a word). iter δ=⅓ is also sampled at the entry of
// every offline solve, through a sampling offline.Solver, because pass ends
// miss the projection store's peak between passes. The lower bounds this
// repository reproduces are stated in that meter, so a store whose heap
// outgrows its charge would make the space column meaningless.
//
// The input is E18's family (planted, m = 2n, OPT = 16), read from an SCB1
// file so the repository itself holds no sets in the heap. The baseline is
// taken at the end of a warm-up pass, which fills the decode arenas and
// holds the same per-pass objects a sample sees (engine, reader, trace
// record), stream infrastructure the meter does not charge. Each reading
// collects twice, so pooled batch buffers, also uncharged infrastructure,
// are in no reading: with one collection a buffer still in a pool's victim
// cache moves a reading by about 8 KB either way.
//
// A solve's fixed objects (its engine, closures, slice and bitset headers)
// come to about half a kilobyte that no word of the meter stands for, and
// the runtime's own caches move a reading by up to another half. A solve
// charged under minWords words (2 KB) is below that resolution, so it is
// logged but not held to the bound. On this family that is threshold alone
// (32, 91 and 133 words), whose ratios read 1.9–2.4, 1.4–2.0 and 1.6–1.7
// over repeated runs; every other reading charges 544 words or more.
//
// The test reads the process-wide live heap, so it must not run in
// parallel with other tests.
func TestLiveHeapTracksSpaceMeter(t *testing.T) {
	const bound, minWords = 2.0, 256
	// Each solve charges its words through eng, whose Tracer samples the
	// heap at pass ends; sample takes one more sample anywhere. Every
	// algorithm of the table runs at the defaults, iter at δ=⅓.
	type solver struct {
		name  string
		solve func(repo stream.Repository, eng engine.Options, sample func()) (int64, error)
	}
	var solvers []solver
	for _, e := range algos.All() {
		p, name := algos.Defaults(), e.Name
		if e.Name == "iter" {
			p.Delta, name = 1.0/3.0, "iter δ=1/3"
		}
		solvers = append(solvers, solver{name, func(repo stream.Repository, eng engine.Options, _ func()) (int64, error) {
			p.Engine = eng
			res, err := e.Solve(repo, p)
			return res.SpaceWords, err
		}})
	}
	iter, _ := algos.Lookup("iter")
	solvers = append(solvers, solver{"iter δ=1/3 offline-solve entry", func(repo stream.Repository, eng engine.Options, sample func()) (int64, error) {
		p := algos.Defaults()
		p.Delta, p.Offline, p.Engine = 1.0/3.0, samplingSolver{offline.Greedy{}, sample}, eng
		p.Engine.Tracer = nil
		res, err := iter.Solve(repo, p)
		return res.SpaceWords, err
	}})
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
			if ratio > bound && words >= minWords {
				t.Errorf("n=%d %s: live heap is %.2f× the space meter, want ≤ %.1f×", n, s.name, ratio, bound)
			}
		}
	}
}

// samplingSolver samples the live heap as each offline solve begins, with
// the projection store filled and the sub-instance built.
type samplingSolver struct {
	offline.Solver
	sample func()
}

func (s samplingSolver) Solve(in *setcover.Instance) ([]int, error) {
	s.sample()
	return s.Solver.Solve(in)
}

// peakLiveHeap solves the SCB1 file at path at Workers 1 and returns the
// peak live heap above the baseline, sampled at every pass end and wherever
// the solve calls sample, with the solve's charged space words.
func peakLiveHeap(t *testing.T, path string, solve func(stream.Repository, engine.Options, func()) (int64, error)) (peak uint64, words int64) {
	t.Helper()
	repo, err := scdisk.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	var base uint64
	sample := func() {
		if h := liveHeapBytes(); h > base {
			peak = max(peak, h-base)
		}
	}
	atPassEnd := obs.TracerFunc(func(obs.PassTrace) { sample() })
	eng := engine.Options{Workers: 1, Tracer: obs.TracerFunc(func(obs.PassTrace) { base = liveHeapBytes() })}
	if err := engine.New(eng).Run(repo); err != nil {
		t.Fatal(err)
	}
	eng.Tracer = atPassEnd
	words, err = solve(repo, eng, sample)
	if err != nil {
		t.Fatal(err)
	}
	return peak, words
}

// liveHeapBytes collects garbage twice, which empties every sync.Pool, and
// returns the bytes of live heap objects the last collection marked.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
