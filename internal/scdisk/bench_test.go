package scdisk

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// Benchmark dimensions: the Planted n=50k/m=100k workload DESIGN.md §4 uses
// for the engine fanout benchmark.
const (
	benchN = 50_000
	benchM = 100_000
	benchK = 500
)

// streamBenchFile writes the benchmark instance to dir via the streaming
// generator (never materializing it) and returns the path plus the payload
// size in element-bytes.
func streamBenchFile(tb testing.TB, dir string) (path string, payloadBytes int64) {
	tb.Helper()
	genSet, _, _, err := gen.PlantedFunc(gen.PlantedConfig{N: benchN, M: benchM, K: benchK, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	path = filepath.Join(dir, "bench.scb")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := NewWriter(f, benchN, benchM)
	if err != nil {
		tb.Fatal(err)
	}
	for id := 0; id < benchM; id++ {
		s := genSet(id)
		payloadBytes += int64(len(s.Elems)) * 4
		if err := w.WriteSet(s.Elems); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return path, payloadBytes
}

// drainPass runs one engine-shaped pass: batched decode with recycling.
// Returns the number of sets and elements seen.
func drainPass(it stream.Reader, batchSize int, checkpoint func(batches int)) (sets, elems int) {
	rec, _ := it.(stream.Recycler)
	batch := make([]setcover.Set, 0, batchSize)
	batches := 0
	for {
		k := it.NextBatch(batch[:0])
		if k == 0 {
			return sets, elems
		}
		for _, s := range batch[:k] {
			elems += len(s.Elems)
		}
		sets += k
		if rec != nil {
			rec.Recycle(batch[:k])
		}
		batches++
		if checkpoint != nil {
			checkpoint(batches)
		}
	}
}

// BenchmarkDiskRepoPass measures one full sequential pass decoded off disk,
// through the same batched path the engine uses. Compare against
// BenchmarkSliceRepoPass for the out-of-core decode overhead.
func BenchmarkDiskRepoPass(b *testing.B) {
	path, _ := streamBenchFile(b, b.TempDir())
	d, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.ReportAllocs()
	b.ResetTimer()
	totalSets := 0
	for i := 0; i < b.N; i++ {
		it := d.Begin()
		sets, _ := drainPass(it, 256, nil)
		if sets != benchM {
			b.Fatalf("pass saw %d of %d sets (err: %v)", sets, benchM, it.Err())
		}
		totalSets += sets
	}
	b.ReportMetric(float64(totalSets)/b.Elapsed().Seconds(), "sets/s")
}

// BenchmarkDiskRepoPassSegmented measures the same full pass through the
// engine's segmented decoder at increasing worker counts — the decode
// scaling the SCIX index buys. workers=1 is the engine's sequential path
// (the baseline including engine overhead); on a single-CPU host the higher
// worker counts cannot win (GOMAXPROCS caps true parallelism — the sweep
// then measures the segmentation overhead instead), which is the documented
// single-core ceiling; on multicore hosts sets/s scales with workers until
// the reorder window or the storage bandwidth saturates.
func BenchmarkDiskRepoPassSegmented(b *testing.B) {
	path, _ := streamBenchFile(b, b.TempDir())
	d, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	sweep := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	for _, workers := range sweep {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := engine.New(engine.Options{Workers: workers, BatchSize: 256})
			b.ReportAllocs()
			b.ResetTimer()
			var total atomic.Int64
			for i := 0; i < b.N; i++ {
				var sets atomic.Int64
				if err := e.Run(d, engine.Func(func(batch []setcover.Set) {
					sets.Add(int64(len(batch)))
				})); err != nil {
					b.Fatal(err)
				}
				if sets.Load() != benchM {
					b.Fatalf("pass saw %d of %d sets", sets.Load(), benchM)
				}
				total.Add(sets.Load())
			}
			b.ReportMetric(float64(total.Load())/b.Elapsed().Seconds(), "sets/s")
		})
	}
}

// BenchmarkSliceRepoPass is the in-memory reference for the same stream.
func BenchmarkSliceRepoPass(b *testing.B) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: benchN, M: benchM, K: benchK, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	repo := stream.NewSliceRepo(in)
	b.ReportAllocs()
	b.ResetTimer()
	totalSets := 0
	for i := 0; i < b.N; i++ {
		sets, _ := drainPass(repo.Begin(), 256, nil)
		if sets != benchM {
			b.Fatalf("pass saw %d of %d sets", sets, benchM)
		}
		totalSets += sets
	}
	b.ReportMetric(float64(totalSets)/b.Elapsed().Seconds(), "sets/s")
}

// A pass over the disk repository must keep O(BatchSize · avg-set-size) sets
// live, never the instance: this is the acceptance criterion for the
// out-of-core backend. The instance payload is ~30 MB of elements; the test
// asserts the live heap during a batched+recycled pass never grows past a
// quarter of it (the observed steady state is ~3 orders of magnitude below
// the payload; the slack absorbs GC noise).
func TestDiskRepoPassMemoryBound(t *testing.T) {
	if testing.Short() {
		t.Skip("50k/100k instance generation in -short mode")
	}
	path, payload := streamBenchFile(t, t.TempDir())
	if payload < 10<<20 {
		t.Fatalf("payload %d too small for the bound to mean anything", payload)
	}
	d, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc

	var peak uint64
	it := d.Begin()
	sets, elems := drainPass(it, 256, func(batches int) {
		if batches%64 != 0 {
			return
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
	})
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if sets != benchM {
		t.Fatalf("pass saw %d of %d sets", sets, benchM)
	}
	if int64(elems)*4 != payload {
		t.Fatalf("pass decoded %d element-bytes, wrote %d", int64(elems)*4, payload)
	}
	if peak <= baseline {
		return // live heap never grew measurably: trivially within bound
	}
	growth := int64(peak - baseline)
	if growth > payload/4 {
		t.Fatalf("live heap grew %d bytes during the pass (payload %d): the backend is holding the instance, not O(BatchSize)",
			growth, payload)
	}
	t.Logf("payload=%dB live-heap growth=%dB (%.2f%% of instance)", payload, growth, 100*float64(growth)/float64(payload))
}
