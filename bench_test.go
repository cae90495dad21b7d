package streamsetcover

// One benchmark per paper artifact (table/figure/theorem), as indexed in
// DESIGN.md §4. Each benchmark regenerates the corresponding experiment
// table through internal/experiments, so `go test -bench=.` reproduces the
// full evaluation; cmd/experiments prints the same tables for reading.

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/setcover"
	"repro/internal/stream"
)

var benchSink experiments.Table

// BenchmarkFig11_AlgorithmTable regenerates the measured version of the
// paper's Figure 1.1 (every upper-bound algorithm on one instance).
func BenchmarkFig11_AlgorithmTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = experiments.E1Figure11(int64(i)+1, false, EngineOptions{})
	}
	reportRows(b)
}

// BenchmarkThm28_DeltaSweep regenerates the Theorem 2.8 pass/space/quality
// trade-off curve for iterSetCover.
func BenchmarkThm28_DeltaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = experiments.E2DeltaSweep(int64(i)+1, false, EngineOptions{})
	}
	reportRows(b)
}

// BenchmarkFig12_QuadraticRectangles regenerates the Figure 1.2 construction
// and its canonical-representation compression.
func BenchmarkFig12_QuadraticRectangles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = experiments.E3Figure12(false)
	}
	reportRows(b)
}

// BenchmarkThm46_Geometric regenerates the Theorem 4.6 table: algGeomSC on
// disks, rectangles, and fat triangles with space flat in m.
func BenchmarkThm46_Geometric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = experiments.E4Geometric(int64(i)+1, false, EngineOptions{})
	}
	reportRows(b)
}

// BenchmarkLem44_CanonicalCounts regenerates the shallow-range canonical
// counting table (Lemma 4.4).
func BenchmarkLem44_CanonicalCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = experiments.E5CanonicalCounts(int64(i)+1, false, EngineOptions{})
	}
	reportRows(b)
}

// BenchmarkThm38_RecoverBits regenerates the Section 3 decoding experiment
// (Figure 3.1 / Theorem 3.8).
func BenchmarkThm38_RecoverBits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = experiments.E6RecoverBits(int64(i)+1, false, EngineOptions{})
	}
	reportRows(b)
}

// BenchmarkThm54_ISCReduction regenerates the Section 5 reduction exactness
// check (Lemmas 5.5–5.7).
func BenchmarkThm54_ISCReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = experiments.E7ISCReduction(int64(i)+1, false, EngineOptions{})
	}
	reportRows(b)
}

// BenchmarkThm66_SparseLB regenerates the Section 6 sparse-instance table.
func BenchmarkThm66_SparseLB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = experiments.E8SparseLB(int64(i)+1, false, EngineOptions{})
	}
	reportRows(b)
}

// BenchmarkAblation_SizeTest regenerates the E9 size-test ablation.
func BenchmarkAblation_SizeTest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = experiments.E9AblationSizeTest(int64(i)+1, false, EngineOptions{})
	}
	reportRows(b)
}

// BenchmarkAblation_Sampling regenerates the E10 sampling ablation.
func BenchmarkAblation_Sampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = experiments.E10AblationSampling(int64(i)+1, false, EngineOptions{})
	}
	reportRows(b)
}

// BenchmarkAblation_OfflineSolver regenerates the E11 ρ ablation.
func BenchmarkAblation_OfflineSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = experiments.E11AblationOffline(int64(i)+1, false, EngineOptions{})
	}
	reportRows(b)
}

// BenchmarkLem25_RelativeApprox regenerates the Lemma 2.5 sampling check.
func BenchmarkLem25_RelativeApprox(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = experiments.E12RelativeApprox(int64(i)+1, false, EngineOptions{})
	}
	reportRows(b)
}

// BenchmarkExt_PartialCover regenerates the ε-Partial Set Cover table (E13).
func BenchmarkExt_PartialCover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = experiments.E13PartialCover(int64(i)+1, false, EngineOptions{})
	}
	reportRows(b)
}

// BenchmarkExt_CanonicalAblation regenerates the Lemma 4.2 splitting
// ablation on the Figure 1.2 stream (E14).
func BenchmarkExt_CanonicalAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = experiments.E14CanonicalAblation(int64(i)+1, false, EngineOptions{})
	}
	reportRows(b)
}

// BenchmarkObs59_ProtocolSimulation regenerates the Observation 5.9
// streaming-to-communication table (E15).
func BenchmarkObs59_ProtocolSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = experiments.E15ProtocolSimulation(int64(i)+1, false, EngineOptions{})
	}
	reportRows(b)
}

// BenchmarkSG09_MaxKCover regenerates the Max k-Cover table (E16).
func BenchmarkSG09_MaxKCover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = experiments.E16MaxKCover(int64(i)+1, false, EngineOptions{})
	}
	reportRows(b)
}

// BenchmarkExt_TightnessTraps regenerates the worst-case trap table (E17).
func BenchmarkExt_TightnessTraps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = experiments.E17Tightness(int64(i)+1, false, EngineOptions{})
	}
	reportRows(b)
}

// BenchmarkThm28_ScalingSeries regenerates the n-sweep series (E18).
func BenchmarkThm28_ScalingSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = experiments.E18Scaling(int64(i)+1, false, EngineOptions{})
	}
	reportRows(b)
}

// BenchmarkBatchedPrimalDual regenerates the weighted primal-dual table
// over the VC worst-case families (E19).
func BenchmarkBatchedPrimalDual(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = experiments.E19PrimalDual(int64(i)+1, false, EngineOptions{})
	}
	reportRows(b)
}

// BenchmarkEngineFanout measures the shared pass engine itself: one physical
// pass over a Planted instance (n=50k, m=100k) fanned out to 16 observers,
// each doing iterSetCover's per-set size-test work (an intersection count
// against its own uncovered bitset) — the Lemma 2.1 "parallel guesses share
// passes" workload. Sequential (Workers=1) vs. batched-parallel
// (Workers=GOMAXPROCS) isolates the engine's wall-clock win; results are
// identical by the engine's determinism contract.
func BenchmarkEngineFanout(b *testing.B) {
	const n, m, guesses = 50_000, 100_000, 16
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: n, M: m, K: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	repo := stream.NewSliceRepo(in)
	// Each observer's accumulator is padded to its own cache line: adjacent
	// int64 slots written per-set from different workers would false-share
	// and suppress the very fan-out win this benchmark measures.
	type fanoutState struct {
		uncovered *bitset.Bitset
		gain      int64
		_         [48]byte
	}
	mkObservers := func() []engine.Observer {
		obs := make([]engine.Observer, guesses)
		states := make([]fanoutState, guesses)
		for i := range obs {
			st := &states[i]
			st.uncovered = bitset.New(n)
			st.uncovered.Fill()
			obs[i] = engine.Func(func(batch []setcover.Set) {
				for _, s := range batch {
					st.gain += int64(st.uncovered.IntersectionWithSlice(s.Elems))
				}
			})
		}
		return obs
	}
	sweep := []int{1, 2, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	for _, workers := range sweep {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := engine.New(engine.Options{Workers: workers})
			obs := mkObservers()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Run(repo, obs...)
			}
			b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msets/s")
		})
	}
}

func reportRows(b *testing.B) {
	b.ReportMetric(float64(len(benchSink.Rows)), "rows")
	benchSink.Render(io.Discard)
}
