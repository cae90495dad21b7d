package experiments

import (
	"math"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/maxcover"
	"repro/internal/offline"
	"repro/internal/sample"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// E1Figure11 reproduces the upper-bound rows of the paper's Figure 1.1:
// every algorithm on one planted instance, reporting measured approximation,
// passes, and space. The paper's table lists asymptotic bounds; the measured
// columns must exhibit the same ordering (greedy-1pass max space / min
// passes; ER14 1 pass with poor approximation; CW16 few passes; DIMV14 same
// space as iterSetCover but many more passes; iterSetCover 2/δ passes with
// Õ(m·n^δ) space and log-factor approximation).
func E1Figure11(seed int64, quick bool, eng engine.Options) Table {
	n, m, k := 2000, 4000, 25
	if quick {
		n, m, k = 400, 800, 8
	}
	in, _, opt, err := gen.Planted(gen.PlantedConfig{N: n, M: m, K: k, Seed: seed})
	if err != nil {
		panic(err)
	}
	inputWords := int64(0)
	for _, s := range in.Sets {
		inputWords += stream.WordsForElems(len(s.Elems))
	}

	t := Table{
		ID:    "E1",
		Title: "Figure 1.1 upper-bound rows, measured",
		Head:  []string{"algorithm", "paper bound (approx/passes/space)", "ratio", "passes", "space(words)", "valid"},
	}
	t.AddNote("planted instance: n=%d m=%d OPT=%d seed=%d; input size %d words", n, m, opt, seed, inputWords)

	type row struct {
		paper string
		run   func() (setcover.Stats, error)
	}
	rows := []row{
		{"ln n / 1 / O(mn)", func() (setcover.Stats, error) {
			return baseline.OnePassGreedy(stream.NewSliceRepo(in), eng)
		}},
		{"ln n / n / O(n)", func() (setcover.Stats, error) {
			return baseline.MultiPassGreedy(stream.NewSliceRepo(in), eng)
		}},
		{"O(log n) / O(log n) / Õ(n)", func() (setcover.Stats, error) {
			return baseline.ThresholdGreedy(stream.NewSliceRepo(in), eng)
		}},
		{"O(log n) / O(log n) / Õ(n) [max-k-cover]", func() (setcover.Stats, error) {
			return maxcover.SahaGetoorSetCover(stream.NewSliceRepo(in), eng)
		}},
		{"O(√n) / 1 / Θ̃(n)", func() (setcover.Stats, error) {
			return baseline.EmekRosen(stream.NewSliceRepo(in), eng)
		}},
		{"O(n^δ/δ) / 1/δ−1 / Θ̃(n), δ=1/3", func() (setcover.Stats, error) {
			return baseline.ChakrabartiWirth(stream.NewSliceRepo(in), 2, eng)
		}},
		{"O(4^{1/δ}ρ) / O(4^{1/δ}) / Õ(mn^δ), δ=1/2", func() (setcover.Stats, error) {
			return baseline.DIMV14(stream.NewSliceRepo(in), baseline.DIMV14Options{Delta: 0.5, Scale: 0.25, Seed: seed}, eng)
		}},
		{"O(ρ/δ) / 2/δ / Õ(mn^δ), δ=1/2", func() (setcover.Stats, error) {
			r, err := core.IterSetCover(stream.NewSliceRepo(in), core.Options{Delta: 0.5, Offline: offline.Greedy{}, Seed: seed, Engine: eng})
			return r.Stats, err
		}},
		{"O(ρ/δ) / 2/δ / Õ(mn^δ), δ=1/4", func() (setcover.Stats, error) {
			r, err := core.IterSetCover(stream.NewSliceRepo(in), core.Options{Delta: 0.25, Offline: offline.Greedy{}, Seed: seed, Engine: eng})
			return r.Stats, err
		}},
	}
	for _, r := range rows {
		st, err := r.run()
		st = st.Verify(in)
		ratio := "-"
		if err == nil && st.Valid {
			ratio = f2c(st.Ratio(opt))
		}
		t.AddRow(st.Algorithm, r.paper, ratio, d(st.Passes), d64(st.SpaceWords), ok(err == nil && st.Valid))
	}
	return t
}

// E2DeltaSweep reproduces Theorem 2.8's trade-off curve: as δ shrinks,
// passes grow like 2/δ while space shrinks like m·n^δ.
func E2DeltaSweep(seed int64, quick bool, eng engine.Options) Table {
	n, m, k := 4096, 8192, 32
	if quick {
		n, m, k = 512, 1024, 8
	}
	t := Table{
		ID:    "E2",
		Title: "Theorem 2.8 pass/space trade-off (iterSetCover, δ sweep)",
		Head:  []string{"delta", "passes (≤2/δ)", "space(words)", "proj space", "m·n^δ (reference)", "ratio", "best k"},
	}
	t.AddNote("planted instance: n=%d m=%d OPT=%d seed=%d", n, m, k, seed)
	for _, delta := range []float64{1, 0.5, 1.0 / 3.0, 0.25} {
		in, _, opt, err := gen.Planted(gen.PlantedConfig{N: n, M: m, K: k, Seed: seed})
		if err != nil {
			panic(err)
		}
		repo := stream.NewSliceRepo(in)
		res, err := core.IterSetCover(repo, core.Options{Delta: delta, Offline: offline.Greedy{}, Seed: seed, Engine: eng})
		ratio := "-"
		if err == nil {
			ratio = f2c(res.Ratio(opt))
		}
		ref := float64(m) * math.Pow(float64(n), delta)
		t.AddRow(f2c(delta), d(res.Passes), d64(res.SpaceWords), d64(res.StoredProjectionWordsPeak),
			f1(ref), ratio, d(res.BestK))
	}
	return t
}

// E9AblationSizeTest measures what the Size Test buys (Lemma 2.3): without
// it, heavy sets are stored instead of taken, and projection storage grows.
func E9AblationSizeTest(seed int64, quick bool, eng engine.Options) Table {
	n, m, k := 2048, 4096, 8
	if quick {
		n, m, k = 512, 1024, 4
	}
	t := Table{
		ID:    "E9",
		Title: "Ablation: the Size Test (heavy-set shortcut) of Figure 1.3",
		Head:  []string{"variant", "proj space(words)", "total space", "cover", "iterations"},
	}
	t.AddNote("planted instance: n=%d m=%d OPT=%d; single guess k=%d", n, m, k, k)
	for _, disable := range []bool{false, true} {
		in, _, _, err := gen.Planted(gen.PlantedConfig{N: n, M: m, K: k, Seed: seed})
		if err != nil {
			panic(err)
		}
		repo := stream.NewSliceRepo(in)
		res, err := core.IterSetCover(repo, core.Options{
			Delta: 0.5, Offline: offline.Greedy{}, Seed: seed,
			KMin: k, KMax: k, DisableSizeTest: disable, AdaptiveIterations: true,
			Engine: eng,
		})
		name := "with size test"
		if disable {
			name = "without size test"
		}
		if err != nil {
			t.AddRow(name, "-", "-", "failed", "-")
			continue
		}
		t.AddRow(name, d64(res.StoredProjectionWordsPeak), d64(res.SpaceWords), d(len(res.Cover)), d(res.Iterations))
	}
	return t
}

// E10AblationSampling measures what the relative (p, ε)-approximation sample
// size buys (Lemma 2.6 vs plain element sampling): with a too-small sample
// the per-iteration shrink factor drops from n^δ to a constant and the
// iteration count explodes — the qualitative gap to [DIMV14].
func E10AblationSampling(seed int64, quick bool, eng engine.Options) Table {
	n, m, k := 4096, 4096, 8
	if quick {
		n, m, k = 1024, 1024, 4
	}
	t := Table{
		ID:    "E10",
		Title: "Ablation: relative (p,ε)-approx sample vs plain element sampling",
		Head:  []string{"sampler", "sample/iter", "iterations", "passes", "cover"},
	}
	t.AddNote("planted instance: n=%d m=%d OPT=%d; adaptive iterations until covered", n, m, k)
	type variant struct {
		name  string
		sizer core.SampleSizer
	}
	variants := []variant{
		{"relative-approx (k·n^δ)", core.PracticalSizer(1, 0.5)},
		{"plain tiny (k·log n)", func(kk, nn, mm, u int) int {
			return int(float64(kk) * math.Log2(float64(nn)))
		}},
	}
	for _, v := range variants {
		in, _, _, err := gen.Planted(gen.PlantedConfig{N: n, M: m, K: k, Seed: seed})
		if err != nil {
			panic(err)
		}
		repo := stream.NewSliceRepo(in)
		res, err := core.IterSetCover(repo, core.Options{
			Delta: 0.5, Offline: offline.Greedy{}, Seed: seed,
			KMin: k, KMax: k, Sizer: v.sizer, AdaptiveIterations: true,
			Engine: eng,
		})
		if err != nil {
			t.AddRow(v.name, d(v.sizer(k, n, m, n)), "-", "-", "failed")
			continue
		}
		t.AddRow(v.name, d(v.sizer(k, n, m, n)), d(res.Iterations), d(res.Passes), d(len(res.Cover)))
	}
	return t
}

// E11AblationOffline compares greedy (ρ = ln n) and exact (ρ = 1) offline
// solvers inside iterSetCover — the ρ/δ factor of Theorem 2.8.
func E11AblationOffline(seed int64, quick bool, eng engine.Options) Table {
	n, m, k := 300, 600, 6
	if quick {
		n, m, k = 150, 300, 4
	}
	t := Table{
		ID:    "E11",
		Title: "Ablation: offline solver ρ inside iterSetCover (Theorem 2.8)",
		Head:  []string{"offline solver", "rho", "cover", "ratio", "passes"},
	}
	t.AddNote("planted instance: n=%d m=%d OPT=%d", n, m, k)
	for _, solver := range []offline.Solver{offline.Greedy{}, offline.Exact{}} {
		in, _, opt, err := gen.Planted(gen.PlantedConfig{N: n, M: m, K: k, Seed: seed})
		if err != nil {
			panic(err)
		}
		repo := stream.NewSliceRepo(in)
		res, err := core.IterSetCover(repo, core.Options{Delta: 0.5, Offline: solver, Seed: seed, Engine: eng})
		if err != nil {
			t.AddRow(solver.Name(), f1(solver.Rho(n)), "failed", "-", "-")
			continue
		}
		t.AddRow(solver.Name(), f1(solver.Rho(n)), d(len(res.Cover)), f2c(res.Ratio(opt)), d(res.Passes))
	}
	return t
}

// E12RelativeApprox empirically validates Lemma 2.5 (the HS11 sampling
// bound): at the bound's sample size the violation rate of Definition 2.4
// stays below q.
func E12RelativeApprox(seed int64, quick bool, _ engine.Options) Table {
	n, numRanges, trials := 4000, 64, 30
	if quick {
		n, numRanges, trials = 1000, 32, 10
	}
	const p, eps, q = 0.05, 0.5, 0.1
	t := Table{
		ID:    "E12",
		Title: "Lemma 2.5: relative (p,ε)-approximation sample-size bound",
		Head:  []string{"c (constant)", "sample size", "trials with violation", "trials", "target q"},
	}
	t.AddNote("n=%d ranges=%d p=%.2f eps=%.2f", n, numRanges, p, eps)
	rng := rand.New(rand.NewSource(seed))
	v := bitset.New(n)
	v.Fill()
	ranges := make([]*bitset.Bitset, numRanges)
	for i := range ranges {
		r := bitset.New(n)
		density := rng.Float64() * 0.3
		for e := 0; e < n; e++ {
			if rng.Float64() < density {
				r.Set(e)
			}
		}
		ranges[i] = r
	}
	for _, c := range []float64{0.1, 0.25, 0.5} {
		size := sample.Size(eps, p, q, numRanges, c)
		if size > n {
			size = n
		}
		bad := 0
		for trial := 0; trial < trials; trial++ {
			z := sample.UniformFromBitset(rng, v, size)
			if sample.CheckRelativeApprox(v, z, ranges, p, eps) > 0 {
				bad++
			}
		}
		t.AddRow(f2c(c), d(size), d(bad), d(trials), f2c(q))
	}
	return t
}

func ok(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}
