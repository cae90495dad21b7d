package maxcover

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/setcover"
	"repro/internal/stream"
)

func mk(n int, sets ...[]setcover.Elem) *setcover.Instance {
	in := &setcover.Instance{N: n}
	for _, es := range sets {
		in.Sets = append(in.Sets, setcover.Set{Elems: es})
	}
	in.Normalize()
	return in
}

func TestGreedyBasic(t *testing.T) {
	in := mk(6,
		[]setcover.Elem{0, 1, 2},
		[]setcover.Elem{3, 4},
		[]setcover.Elem{5},
		[]setcover.Elem{0, 3},
	)
	res, err := Greedy(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered != 5 {
		t.Fatalf("covered = %d, want 5 ({0,1,2} then {3,4})", res.Covered)
	}
	if len(res.Sets) != 2 || res.Sets[0] != 0 || res.Sets[1] != 1 {
		t.Fatalf("sets = %v", res.Sets)
	}
}

func TestGreedyBudgetExceedsNeed(t *testing.T) {
	in := mk(3, []setcover.Elem{0, 1, 2})
	res, err := Greedy(in, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 1 || res.Covered != 3 {
		t.Fatalf("res = %+v", res)
	}
}

func TestGreedyZeroAndNegative(t *testing.T) {
	in := mk(3, []setcover.Elem{0})
	res, err := Greedy(in, 0)
	if err != nil || len(res.Sets) != 0 || res.Covered != 0 {
		t.Fatalf("k=0: %+v err=%v", res, err)
	}
	if _, err := Greedy(in, -1); err == nil {
		t.Fatal("negative budget should error")
	}
}

func TestStreamingOnePass(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 500, M: 1000, K: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	repo := stream.NewSliceRepo(in)
	res, err := Streaming(repo, 10, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != 1 {
		t.Fatalf("passes = %d, want 1", res.Passes)
	}
	if len(res.Sets) > 10 {
		t.Fatalf("budget exceeded: %d sets", len(res.Sets))
	}
	// Constant-factor guarantee vs offline greedy.
	g, err := Greedy(in, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered*4 < g.Covered {
		t.Fatalf("streaming covered %d, below greedy/4 (%d)", res.Covered, g.Covered)
	}
}

func TestStreamingEdgeCases(t *testing.T) {
	empty := stream.NewSliceRepo(&setcover.Instance{N: 0})
	res, err := Streaming(empty, 5, engine.Options{})
	if err != nil || res.Covered != 0 {
		t.Fatalf("empty: %+v err=%v", res, err)
	}
	in := mk(3, []setcover.Elem{0, 1, 2})
	if _, err := Streaming(stream.NewSliceRepo(in), -2, engine.Options{}); err == nil {
		t.Fatal("negative budget should error")
	}
	res, err = Streaming(stream.NewSliceRepo(in), 0, engine.Options{})
	if err != nil || len(res.Sets) != 0 {
		t.Fatalf("k=0: %+v err=%v", res, err)
	}
}

func TestStreamingCoveredMatchesSets(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 300, M: 600, K: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Streaming(stream.NewSliceRepo(in), 6, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := in.CoverageOf(res.Sets).Count(); got != res.Covered {
		t.Fatalf("reported covered %d != recomputed %d", res.Covered, got)
	}
}

func TestSahaGetoorSetCover(t *testing.T) {
	in, _, opt, err := gen.Planted(gen.PlantedConfig{N: 600, M: 1200, K: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	repo := stream.NewSliceRepo(in)
	st, err := SahaGetoorSetCover(repo, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsCover(st.Cover) {
		t.Fatal("not a cover")
	}
	// O(log n) passes.
	if st.Passes > 45 {
		t.Fatalf("passes = %d, want O(log n)", st.Passes)
	}
	// O(log n)-ish approximation, generous ceiling.
	if len(st.Cover) > 40*opt {
		t.Fatalf("cover %d vs opt %d", len(st.Cover), opt)
	}
	// Õ(n) space.
	if st.SpaceWords > 16*600 {
		t.Fatalf("space %d not Õ(n)", st.SpaceWords)
	}
}

func TestSahaGetoorInfeasible(t *testing.T) {
	in := mk(5, []setcover.Elem{0, 1})
	if _, err := SahaGetoorSetCover(stream.NewSliceRepo(in), engine.Options{}); err == nil {
		t.Fatal("infeasible instance should error")
	}
}

func TestSahaGetoorEmptyUniverse(t *testing.T) {
	st, err := SahaGetoorSetCover(stream.NewSliceRepo(&setcover.Instance{N: 0}), engine.Options{})
	if err != nil || !st.Valid {
		t.Fatalf("st=%+v err=%v", st, err)
	}
}

// Golden outputs on gen.Planted{N:350, M:800, K:14, Seed:21}, captured from
// the direct-scan implementations before they ran on the pass engine.
// backends_test.go requires them on every backend at every engine setting.
var (
	goldenStreaming = Result{
		Sets:    []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 17, 19},
		Covered: 183, Passes: 1, SpaceWords: 195,
	}
	goldenSG09Cover = []int{12, 24, 27, 32, 411, 521, 19, 37, 58, 63, 102, 133, 193, 623,
		1, 2, 14, 36, 38, 75, 145, 155, 6, 7, 9, 26, 55, 69, 73, 83,
		4, 5, 21, 23, 39, 43, 44, 46, 59, 81, 82, 101}
	goldenSG09Passes = 6
	goldenSG09Space  = int64(470)
)

func goldenInstance(t *testing.T) *setcover.Instance {
	t.Helper()
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 350, M: 800, K: 14, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// Property: streaming max-cover never exceeds the budget, never reports more
// coverage than it achieves, and stays within a constant factor of greedy.
func TestPropStreamingGuarantee(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(200)
		k := 2 + rng.Intn(6)
		in, _, _, err := gen.Planted(gen.PlantedConfig{N: n, M: 2 * n, K: k, Seed: seed})
		if err != nil {
			return false
		}
		res, err := Streaming(stream.NewSliceRepo(in), k, engine.Options{})
		if err != nil {
			return false
		}
		if len(res.Sets) > k {
			return false
		}
		if in.CoverageOf(res.Sets).Count() != res.Covered {
			return false
		}
		g, err := Greedy(in, k)
		if err != nil {
			return false
		}
		return res.Covered*4 >= g.Covered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Saha-Getoor always returns a verified cover on coverable inputs.
func TestPropSahaGetoorCovers(t *testing.T) {
	f := func(seed int64) bool {
		k := 2 + int(uint(seed)%4)
		n := 64 + int(uint(seed)%128)
		in, _, _, err := gen.Planted(gen.PlantedConfig{N: n, M: 2 * n, K: k, Seed: seed})
		if err != nil {
			return false
		}
		st, err := SahaGetoorSetCover(stream.NewSliceRepo(in), engine.Options{})
		return err == nil && in.IsCover(st.Cover)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStreamingMaxKCover(b *testing.B) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 2000, M: 4000, K: 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	repo := stream.NewSliceRepo(in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repo.ResetPasses()
		if _, err := Streaming(repo, 20, engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
