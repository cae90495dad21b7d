package baseline

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/gen"
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

func infeasibleRepo() *stream.SliceRepo {
	in := &setcover.Instance{N: 5, Sets: []setcover.Set{{Elems: []setcover.Elem{0, 1}}}}
	in.Normalize()
	return stream.NewSliceRepo(in)
}

func TestOnePassGreedy(t *testing.T) {
	repo, opt := plantedRepo(t, 300, 600, 6, 1)
	st, err := OnePassGreedy(repo, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !repo.Instance().IsCover(st.Cover) || !st.Valid {
		t.Fatal("not a valid cover")
	}
	if st.Passes != 1 {
		t.Fatalf("passes = %d, want 1", st.Passes)
	}
	// Space must be at least the input size (it stores everything).
	var inputWords int64
	for _, s := range repo.Instance().Sets {
		inputWords += stream.WordsForElems(len(s.Elems))
	}
	if st.SpaceWords < inputWords {
		t.Fatalf("space %d < input %d: one-pass greedy must store the input", st.SpaceWords, inputWords)
	}
	if float64(len(st.Cover)) > (math.Log(300)+1)*float64(opt)+1 {
		t.Fatalf("greedy ratio too large: %d vs opt %d", len(st.Cover), opt)
	}
}

func TestOnePassGreedyInfeasible(t *testing.T) {
	if _, err := OnePassGreedy(infeasibleRepo(), engine.Options{}); !errors.Is(err, setcover.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestMultiPassGreedy(t *testing.T) {
	repo, opt := plantedRepo(t, 300, 600, 6, 2)
	st, err := MultiPassGreedy(repo, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !repo.Instance().IsCover(st.Cover) {
		t.Fatal("not a cover")
	}
	// One pass per picked set.
	if st.Passes != len(st.Cover) {
		t.Fatalf("passes = %d, cover = %d; multi-pass greedy uses one pass per pick", st.Passes, len(st.Cover))
	}
	// O(n) space: far below input size, linear-ish in n.
	if st.SpaceWords > 8*300 {
		t.Fatalf("space %d not O(n)", st.SpaceWords)
	}
	_ = opt
}

// TestMultiPassGreedyMatchesOfflineGreedySize is a property over random
// instances: greedy-npass (Figure 1.1's streaming argmax, one pass per pick)
// and greedy-1pass (offline.Greedy over the stored input) are independent
// implementations of one trajectory — max gain per unit cost, ties to the
// smallest ID — so they pick the same IDs in the same order, or both find
// the instance infeasible.
func TestMultiPassGreedyMatchesOfflineGreedySize(t *testing.T) {
	check := func(label string, in *setcover.Instance) {
		t.Helper()
		multi, merr := MultiPassGreedy(stream.NewSliceRepo(in), engine.Options{})
		one, oerr := OnePassGreedy(stream.NewSliceRepo(in), engine.Options{})
		if merr != nil || oerr != nil {
			if !errors.Is(merr, setcover.ErrInfeasible) || !errors.Is(oerr, setcover.ErrInfeasible) {
				t.Fatalf("%s: greedy-npass err %v, greedy-1pass err %v", label, merr, oerr)
			}
			return
		}
		if !slices.Equal(multi.Cover, one.Cover) {
			t.Fatalf("%s: greedy-npass picked %v, greedy-1pass %v", label, multi.Cover, one.Cover)
		}
	}
	check("weightedTestInstance", weightedTestInstance(t))
	for i, in := range tieHeavyInstances(rand.New(rand.NewSource(13)), 60) {
		check(fmt.Sprintf("tie-heavy instance %d", i), in)
	}

	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 300; i++ {
		n, m := 1+rng.Intn(80), 1+rng.Intn(120)
		in := &setcover.Instance{N: n, Sets: make([]setcover.Set, m)}
		size := 1 + rng.Intn(n)
		for j := range in.Sets {
			for k := rng.Intn(size + 1); k > 0; k-- {
				in.Sets[j].Elems = append(in.Sets[j].Elems, setcover.Elem(rng.Intn(n)))
			}
		}
		in.Normalize()
		kind := []string{"unweighted", "log-uniform", "small-integer"}[i%3]
		switch kind {
		case "log-uniform": // six orders of magnitude
			in.Weights = make([]float64, m)
			for j := range in.Weights {
				in.Weights[j] = 1e-3 * math.Pow(1e6, rng.Float64())
			}
		case "small-integer": // exact ratio ties
			in.Weights = make([]float64, m)
			for j := range in.Weights {
				in.Weights[j] = float64(1 + rng.Intn(4))
			}
		}
		check(fmt.Sprintf("instance %d (%s)", i, kind), in)
	}
}

// tieHeavyInstances returns count unweighted families on which many sets
// tie on gain, cycling through three shapes: equal-size random sets,
// singletons with repeats, and disjoint equal-size blocks with duplicates
// (after the first pick every remaining block reaches the previous pass's
// gain, so the argmax stops at the first of them).
func tieHeavyInstances(rng *rand.Rand, count int) []*setcover.Instance {
	var out []*setcover.Instance
	for i := 0; i < count; i++ {
		n := 1 + rng.Intn(60)
		in := &setcover.Instance{N: n}
		switch i % 3 {
		case 0:
			size := 1 + rng.Intn(n)
			for j := 1 + rng.Intn(100); j > 0; j-- {
				s := setcover.Set{}
				for _, e := range rng.Perm(n)[:size] {
					s.Elems = append(s.Elems, setcover.Elem(e))
				}
				in.Sets = append(in.Sets, s)
			}
		case 1:
			for j := 1 + rng.Intn(3*n); j > 0; j-- {
				in.Sets = append(in.Sets, setcover.Set{Elems: []setcover.Elem{setcover.Elem(rng.Intn(n))}})
			}
		case 2:
			b := 1 + rng.Intn(n)
			for j := 0; j < 3*n; j += b {
				lo := j % n
				block := setcover.Set{}
				for e := lo; e < min(lo+b, n); e++ {
					block.Elems = append(block.Elems, setcover.Elem(e))
				}
				in.Sets = append(in.Sets, block)
			}
		}
		in.Normalize()
		out = append(out, in)
	}
	return out
}

// bestSetRef is bestSetObserver before its early stop: the full argmax scan
// of every set in every pass, kept as the reference its picks must match.
type bestSetRef struct {
	uncovered *bitset.Bitset
	weight    func(int) float64
	gain, id  int
	w         float64
	elems     []setcover.Elem
}

func (o *bestSetRef) BeginPass() { o.gain, o.id, o.w = 0, -1, 1 }
func (o *bestSetRef) EndPass()   {}
func (o *bestSetRef) Observe(batch []setcover.Set) {
	if o.weight == nil {
		for _, s := range batch {
			if g := o.uncovered.IntersectionWithSlice(s.Elems); g > o.gain {
				o.gain, o.id = g, s.ID
				o.elems = append(o.elems[:0], s.Elems...)
			}
		}
		return
	}
	for _, s := range batch {
		g := o.uncovered.IntersectionWithSlice(s.Elems)
		if g == 0 {
			continue
		}
		if w := o.weight(s.ID); float64(g)*o.w > float64(o.gain)*w {
			o.gain, o.id, o.w = g, s.ID, w
			o.elems = append(o.elems[:0], s.Elems...)
		}
	}
}

// refMultiPassGreedy is multiPassGreedy's pick loop over bestSetRef.
func refMultiPassGreedy(repo stream.Repository, eps float64, eng *engine.Engine) ([]int, error) {
	n := repo.UniverseSize()
	allowed, err := allowedLeftovers(n, eps)
	if err != nil {
		return nil, err
	}
	uncovered := bitset.New(n)
	uncovered.Fill()
	ref := &bestSetRef{uncovered: uncovered, weight: stream.WeightFunc(repo)}
	var cover []int
	for uncovered.Count() > allowed {
		if err := eng.Run(repo, ref); err != nil {
			return nil, err
		}
		if ref.id < 0 {
			return nil, setcover.ErrInfeasible
		}
		cover = append(cover, ref.id)
		uncovered.SubtractSlice(ref.elems)
	}
	return cover, nil
}

// The early stop must not change a pick: on random families, weighted and
// not, and on tie-heavy unweighted ones, greedy-npass picks exactly what the
// full-scan reference picks, for ε = 0 and ε > 0, with batches small enough
// that the bound is often reached mid-pass.
func TestBestSetObserverMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	families := tieHeavyInstances(rng, 90)
	for i := 0; i < 90; i++ {
		n, m := 1+rng.Intn(80), 1+rng.Intn(120)
		in := &setcover.Instance{N: n, Sets: make([]setcover.Set, m)}
		for j := range in.Sets {
			for k := rng.Intn(1 + rng.Intn(n)); k > 0; k-- {
				in.Sets[j].Elems = append(in.Sets[j].Elems, setcover.Elem(rng.Intn(n)))
			}
		}
		if i%2 == 1 {
			in.Weights = make([]float64, m)
			for j := range in.Weights {
				in.Weights[j] = float64(1 + rng.Intn(4))
			}
		}
		in.Normalize()
		families = append(families, in)
	}
	opts := engine.Options{Workers: 2, BatchSize: 5}
	for i, in := range families {
		for _, eps := range []float64{0, 0.1, 0.3} {
			repo := stream.NewSliceRepo(in)
			want, werr := refMultiPassGreedy(repo, eps, engine.New(opts))
			got, gerr := MultiPassGreedyPartial(repo, eps, opts)
			if werr != nil || gerr != nil {
				if !errors.Is(werr, setcover.ErrInfeasible) || !errors.Is(gerr, setcover.ErrInfeasible) {
					t.Fatalf("family %d eps=%v: reference err %v, greedy-npass err %v", i, eps, werr, gerr)
				}
				continue
			}
			if !slices.Equal(got.Cover, want) {
				t.Fatalf("family %d eps=%v: greedy-npass picked %v, full scan %v", i, eps, got.Cover, want)
			}
		}
	}
}

func TestMultiPassGreedyInfeasible(t *testing.T) {
	if _, err := MultiPassGreedy(infeasibleRepo(), engine.Options{}); !errors.Is(err, setcover.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestThresholdGreedy(t *testing.T) {
	repo, opt := plantedRepo(t, 512, 1024, 8, 4)
	st, err := ThresholdGreedy(repo, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !repo.Instance().IsCover(st.Cover) {
		t.Fatal("not a cover")
	}
	// O(log n) passes.
	maxPasses := int(math.Log2(512)) + 2
	if st.Passes > maxPasses {
		t.Fatalf("passes = %d, want <= %d", st.Passes, maxPasses)
	}
	// O(log n) approximation, generously bounded.
	if float64(len(st.Cover)) > 4*(math.Log2(512)+1)*float64(opt) {
		t.Fatalf("threshold greedy ratio too large: %d vs opt %d", len(st.Cover), opt)
	}
	if st.SpaceWords > 8*512 {
		t.Fatalf("space %d not O~(n)", st.SpaceWords)
	}
}

func TestThresholdGreedyInfeasible(t *testing.T) {
	if _, err := ThresholdGreedy(infeasibleRepo(), engine.Options{}); !errors.Is(err, setcover.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestEmekRosen(t *testing.T) {
	repo, opt := plantedRepo(t, 400, 800, 5, 5)
	st, err := EmekRosen(repo, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !repo.Instance().IsCover(st.Cover) {
		t.Fatal("not a cover")
	}
	if st.Passes != 1 {
		t.Fatalf("passes = %d, want 1", st.Passes)
	}
	// O(√n)-approximation: |cover| <= 2√n·opt + √n.
	bound := 2*math.Sqrt(400)*float64(opt) + math.Sqrt(400)
	if float64(len(st.Cover)) > bound {
		t.Fatalf("cover %d exceeds 2√n·opt+√n = %.0f", len(st.Cover), bound)
	}
	if st.SpaceWords > 8*400 {
		t.Fatalf("space %d not Θ̃(n)", st.SpaceWords)
	}
}

func TestEmekRosenEmptyUniverse(t *testing.T) {
	repo := stream.NewSliceRepo(&setcover.Instance{N: 0})
	st, err := EmekRosen(repo, engine.Options{})
	if err != nil || !st.Valid || len(st.Cover) != 0 {
		t.Fatalf("st=%+v err=%v", st, err)
	}
}

func TestEmekRosenInfeasible(t *testing.T) {
	if _, err := EmekRosen(infeasibleRepo(), engine.Options{}); !errors.Is(err, setcover.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestChakrabartiWirth(t *testing.T) {
	for _, p := range []int{1, 2, 3} {
		repo, _ := plantedRepo(t, 400, 800, 5, 6)
		st, err := ChakrabartiWirth(repo, p, engine.Options{})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !repo.Instance().IsCover(st.Cover) {
			t.Fatalf("p=%d: not a cover", p)
		}
		if st.Passes > p {
			t.Fatalf("p=%d: passes = %d", p, st.Passes)
		}
		if st.SpaceWords > 8*400 {
			t.Fatalf("p=%d: space %d not Θ̃(n)", p, st.SpaceWords)
		}
	}
}

func TestChakrabartiWirthMorePassesHelp(t *testing.T) {
	// The approximation should (weakly) improve with more passes on an
	// instance with structure. Use a bigger instance for signal.
	repo1, _ := plantedRepo(t, 1024, 2048, 16, 7)
	st1, err := ChakrabartiWirth(repo1, 1, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	repo3, _ := plantedRepo(t, 1024, 2048, 16, 7)
	st3, err := ChakrabartiWirth(repo3, 3, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st3.Cover) > 2*len(st1.Cover) {
		t.Fatalf("3 passes (%d) much worse than 1 pass (%d)", len(st3.Cover), len(st1.Cover))
	}
}

func TestChakrabartiWirthBadPasses(t *testing.T) {
	repo, _ := plantedRepo(t, 16, 16, 2, 1)
	if _, err := ChakrabartiWirth(repo, 0, engine.Options{}); err == nil {
		t.Fatal("p=0 should error")
	}
}

func TestDIMV14(t *testing.T) {
	repo, opt := plantedRepo(t, 512, 1024, 8, 8)
	st, err := DIMV14(repo, DIMV14Options{Delta: 0.5, Scale: 1, Seed: 1}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !repo.Instance().IsCover(st.Cover) {
		t.Fatal("not a cover")
	}
	if st.Passes < 2 {
		t.Fatalf("passes = %d, want >= 2", st.Passes)
	}
	_ = opt
}

func TestDIMV14UsesMorePassesThanTwoOverDelta(t *testing.T) {
	// The headline claim: at the same space budget, plain element sampling
	// needs more passes than iterSetCover's 2/δ (=4 at δ=1/2) on instances
	// that are not trivially coverable by one sampled round. Use a small
	// scale to keep per-round progress limited.
	repo, _ := plantedRepo(t, 2048, 2048, 16, 9)
	st, err := DIMV14(repo, DIMV14Options{Delta: 0.5, Scale: 0.05, Seed: 2}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Passes <= 4 {
		t.Fatalf("dimv14 finished in %d passes; expected more than iterSetCover's 4", st.Passes)
	}
}

func TestDIMV14BadDelta(t *testing.T) {
	repo, _ := plantedRepo(t, 16, 16, 2, 1)
	for _, d := range []float64{0, math.NaN(), 1e-300} {
		if _, err := DIMV14(repo, DIMV14Options{Delta: d}, engine.Options{}); err == nil {
			t.Errorf("delta=%v should error", d)
		}
	}
	if repo.Passes() != 0 {
		t.Errorf("bad deltas spent %d passes", repo.Passes())
	}
}

func TestDIMV14Infeasible(t *testing.T) {
	if _, err := DIMV14(infeasibleRepo(), DIMV14Options{Delta: 0.5, Seed: 1}, engine.Options{}); err == nil {
		t.Fatal("infeasible should error")
	}
}

func TestDIMV14EmptyUniverse(t *testing.T) {
	repo := stream.NewSliceRepo(&setcover.Instance{N: 0})
	st, err := DIMV14(repo, DIMV14Options{Delta: 0.5, Seed: 1}, engine.Options{})
	if err != nil || !st.Valid {
		t.Fatalf("st=%+v err=%v", st, err)
	}
}

// Property: all baselines return verified covers on random planted instances.
func TestPropAllBaselinesCover(t *testing.T) {
	f := func(seed int64) bool {
		k := 2 + int(uint(seed)%4)
		n := 64 + int(uint(seed)%64)
		in, _, _, err := gen.Planted(gen.PlantedConfig{N: n, M: 2 * n, K: k, Seed: seed})
		if err != nil {
			return false
		}
		run := func(f func(r stream.Repository, eo engine.Options) (setcover.Stats, error)) bool {
			st, err := f(stream.NewSliceRepo(in), engine.Options{})
			return err == nil && in.IsCover(st.Cover)
		}
		return run(OnePassGreedy) &&
			run(MultiPassGreedy) &&
			run(ThresholdGreedy) &&
			run(EmekRosen) &&
			run(func(r stream.Repository, eo engine.Options) (setcover.Stats, error) {
				return ChakrabartiWirth(r, 2, eo)
			}) &&
			run(func(r stream.Repository, eo engine.Options) (setcover.Stats, error) {
				return DIMV14(r, DIMV14Options{Delta: 0.5, Scale: 1, Seed: seed}, eo)
			})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEmekRosen(b *testing.B) {
	repo, _ := plantedRepo(b, 2048, 4096, 32, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repo.ResetPasses()
		if _, err := EmekRosen(repo, engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThresholdGreedy(b *testing.B) {
	repo, _ := plantedRepo(b, 2048, 4096, 32, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repo.ResetPasses()
		if _, err := ThresholdGreedy(repo, engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
