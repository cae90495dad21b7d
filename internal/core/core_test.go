package core

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/offline"
	"repro/internal/setcover"
	"repro/internal/stream"
)

func plantedRepo(t testing.TB, n, m, k int, seed int64) (*stream.SliceRepo, int) {
	t.Helper()
	in, _, opt, err := gen.Planted(gen.PlantedConfig{N: n, M: m, K: k, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return stream.NewSliceRepo(in), opt
}

func TestIterSetCoverFindsValidCover(t *testing.T) {
	repo, opt := plantedRepo(t, 500, 1000, 10, 1)
	res, err := IterSetCover(repo, Options{Delta: 0.5, Offline: offline.Greedy{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid {
		t.Fatal("result not valid")
	}
	if !repo.Instance().IsCover(res.Cover) {
		t.Fatal("reported cover does not cover U")
	}
	ratio := float64(len(res.Cover)) / float64(opt)
	// O(ρ/δ) with ρ=ln n ≈ 6.2, 1/δ=2: generous sanity ceiling.
	if ratio > 25 {
		t.Fatalf("approximation ratio %.1f unreasonably large", ratio)
	}
	if res.BestK <= 0 {
		t.Fatal("BestK not reported")
	}
}

func TestPassCountIsTwoOverDelta(t *testing.T) {
	// Lemma 2.1: 2/δ passes, independent of the number of parallel guesses.
	for _, delta := range []float64{1, 0.5, 1.0 / 3.0, 0.25} {
		repo, _ := plantedRepo(t, 256, 512, 8, 2)
		res, err := IterSetCover(repo, Options{Delta: delta, Offline: offline.Greedy{}, Seed: 3})
		if err != nil {
			t.Fatalf("delta=%v: %v", delta, err)
		}
		want := 2 * int(math.Ceil(1/delta))
		if res.Passes > want {
			t.Errorf("delta=%v: passes = %d, want <= %d", delta, res.Passes, want)
		}
		// Early exit can only reduce passes, and passes come in pairs.
		if res.Passes%2 != 0 {
			t.Errorf("delta=%v: passes = %d, want even", delta, res.Passes)
		}
	}
}

func TestSpaceGrowsWithDelta(t *testing.T) {
	// Lemma 2.2: space ∝ m·n^δ — higher δ, more space (at fixed n, m).
	var prev int64 = -1
	for _, delta := range []float64{0.25, 0.5, 0.9} {
		repo, _ := plantedRepo(t, 1024, 2048, 16, 4)
		res, err := IterSetCover(repo, Options{Delta: delta, Offline: offline.Greedy{}, Seed: 4})
		if err != nil {
			t.Fatalf("delta=%v: %v", delta, err)
		}
		if prev > 0 && res.StoredProjectionWordsPeak < prev/2 {
			t.Errorf("delta=%v: projection space %d much smaller than at smaller delta (%d)",
				delta, res.StoredProjectionWordsPeak, prev)
		}
		prev = res.StoredProjectionWordsPeak
	}
}

func TestSpaceSublinearInInputSize(t *testing.T) {
	// The whole point of the paper: space must be o(m·n) — strictly below
	// storing the input. Input size here is sum of set sizes.
	repo, _ := plantedRepo(t, 2048, 4096, 32, 5)
	inputWords := int64(0)
	for _, s := range repo.Instance().Sets {
		inputWords += stream.WordsForElems(len(s.Elems))
	}
	res, err := IterSetCover(repo, Options{Delta: 0.25, Offline: offline.Greedy{}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpaceWords >= inputWords {
		t.Fatalf("space %d >= input size %d; not sublinear", res.SpaceWords, inputWords)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	repo1, _ := plantedRepo(t, 300, 600, 6, 9)
	repo2, _ := plantedRepo(t, 300, 600, 6, 9)
	o := Options{Delta: 0.5, Offline: offline.Greedy{}, Seed: 77}
	r1, err1 := IterSetCover(repo1, o)
	r2, err2 := IterSetCover(repo2, o)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(r1.Cover) != len(r2.Cover) || r1.BestK != r2.BestK || r1.SpaceWords != r2.SpaceWords {
		t.Fatalf("same seed, different outcomes: %+v vs %+v", r1.Stats, r2.Stats)
	}
}

func TestEmptyUniverse(t *testing.T) {
	repo := stream.NewSliceRepo(&setcover.Instance{N: 0})
	res, err := IterSetCover(repo, Options{Delta: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid || len(res.Cover) != 0 || res.Passes != 0 {
		t.Fatalf("empty universe: %+v", res.Stats)
	}
}

func TestInfeasibleInstance(t *testing.T) {
	in := &setcover.Instance{N: 4, Sets: []setcover.Set{{Elems: []setcover.Elem{0, 1}}}}
	in.Normalize()
	res, err := IterSetCover(stream.NewSliceRepo(in), Options{Delta: 0.5, Seed: 1})
	if !errors.Is(err, ErrNoCover) {
		t.Fatalf("err = %v, want ErrNoCover", err)
	}
	if res.Valid {
		t.Fatal("infeasible instance must not report valid")
	}
}

// A δ outside (0, 1], NaN, or so small that ⌈1/δ⌉ overflows an int fails
// before the first pass, with an error that names δ.
func TestBadDelta(t *testing.T) {
	repo, _ := plantedRepo(t, 16, 16, 2, 1)
	for _, d := range []float64{0, -0.5, 1.5, math.NaN(), 1e-300} {
		if _, err := IterSetCover(repo, Options{Delta: d}); err == nil || !strings.Contains(err.Error(), "delta") {
			t.Errorf("delta=%v: err %v, want an error naming delta", d, err)
		}
	}
	if repo.Passes() != 0 {
		t.Errorf("bad deltas spent %d passes", repo.Passes())
	}
}

func TestSingleGuessRestriction(t *testing.T) {
	repo, opt := plantedRepo(t, 256, 512, 8, 11)
	res, err := IterSetCover(repo, Options{
		Delta: 0.5, Offline: offline.Greedy{}, Seed: 2,
		KMin: 8, KMax: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestK != 8 {
		t.Fatalf("BestK = %d, want 8", res.BestK)
	}
	if !repo.Instance().IsCover(res.Cover) {
		t.Fatal("not a cover")
	}
	_ = opt
}

func TestDisableSizeTestStoresMore(t *testing.T) {
	// Ablation E9: without the size test, stored projections grow.
	mk := func(disable bool) int64 {
		repo, _ := plantedRepo(t, 512, 1024, 4, 13)
		res, err := IterSetCover(repo, Options{
			Delta: 0.5, Offline: offline.Greedy{}, Seed: 3,
			DisableSizeTest: disable, KMin: 4, KMax: 4,
			AdaptiveIterations: true, // without the size test the fixed 1/δ
			// iteration budget may not converge; the ablation compares space.
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.StoredProjectionWordsPeak
	}
	with, without := mk(false), mk(true)
	if without < with {
		t.Fatalf("disabling the size test should not shrink storage: with=%d without=%d", with, without)
	}
}

func TestAdaptiveIterationsConverges(t *testing.T) {
	// Ablation E10: with a deliberately tiny sample the fixed 1/δ iterations
	// fail, but adaptive iterations still converge.
	tiny := func(k, n, m, uncovered int) int { return 8 }
	repo, _ := plantedRepo(t, 1024, 1024, 4, 17)
	res, err := IterSetCover(repo, Options{
		Delta: 0.5, Offline: offline.Greedy{}, Seed: 5,
		Sizer: tiny, AdaptiveIterations: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !repo.Instance().IsCover(res.Cover) {
		t.Fatal("adaptive run did not produce a cover")
	}
	if res.Iterations <= 2 {
		t.Fatalf("tiny samples should need many iterations, got %d", res.Iterations)
	}
}

func TestPaperSizerIsUsable(t *testing.T) {
	repo, _ := plantedRepo(t, 128, 256, 4, 19)
	res, err := IterSetCover(repo, Options{
		Delta: 0.5, Offline: offline.Greedy{}, Seed: 7,
		Sizer: PaperSizer(0.05, 1, 0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !repo.Instance().IsCover(res.Cover) {
		t.Fatal("paper sizer run failed to cover")
	}
}

func TestExactOfflineSolver(t *testing.T) {
	// ρ=1 path (Theorem 2.8's exponential-power regime) on a small instance.
	repo, opt := plantedRepo(t, 60, 120, 4, 23)
	res, err := IterSetCover(repo, Options{Delta: 0.5, Offline: offline.Exact{}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !repo.Instance().IsCover(res.Cover) {
		t.Fatal("not a cover")
	}
	if len(res.Cover) > 8*opt {
		t.Fatalf("cover %d vs opt %d: exact offline solver should stay near O(opt/δ)", len(res.Cover), opt)
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.Delta != 0.5 || o.Offline == nil {
		t.Fatalf("DefaultOptions = %+v", o)
	}
}

func TestTrackerNeverNegative(t *testing.T) {
	// The Grow/Shrink pairing must balance; a panic here means the space
	// accounting is broken. Exercise several shapes.
	for seed := int64(0); seed < 5; seed++ {
		repo, _ := plantedRepo(t, 200, 400, 5, seed)
		if _, err := IterSetCover(repo, Options{Delta: 1.0 / 3.0, Offline: offline.Greedy{}, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
}

// Property: on random planted instances, iterSetCover always returns a
// verified cover with ratio bounded by a generous O(ρ/δ)-style ceiling.
func TestPropAlwaysCovers(t *testing.T) {
	f := func(seed int64) bool {
		k := 2 + int(uint(seed)%5)
		n := 64 + int(uint(seed)%128)
		m := 2 * n
		in, _, opt, err := gen.Planted(gen.PlantedConfig{N: n, M: m, K: k, Seed: seed})
		if err != nil {
			return false
		}
		repo := stream.NewSliceRepo(in)
		res, err := IterSetCover(repo, Options{Delta: 0.5, Offline: offline.Greedy{}, Seed: seed})
		if err != nil {
			return false
		}
		if !in.IsCover(res.Cover) {
			return false
		}
		rho := math.Log(float64(n)) + 1
		return float64(len(res.Cover)) <= 4*rho/0.5*float64(opt)+4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIterSetCoverDelta50(b *testing.B) {
	repo, _ := plantedRepo(b, 2048, 4096, 32, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repo.ResetPasses()
		if _, err := IterSetCover(repo, Options{Delta: 0.5, Offline: offline.Greedy{}, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIterSetCoverDelta25(b *testing.B) {
	repo, _ := plantedRepo(b, 2048, 4096, 32, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repo.ResetPasses()
		if _, err := IterSetCover(repo, Options{Delta: 0.25, Offline: offline.Greedy{}, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
