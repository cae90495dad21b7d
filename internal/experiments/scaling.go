package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/offline"
	"repro/internal/stream"
)

// E18Scaling sweeps the universe size at fixed density to expose the
// asymptotics behind Theorem 2.8 as a series (the "figure" version of E2):
// the input grows like m·(n/k), iterSetCover's space like m·n^δ, so the
// space-to-input ratio must fall as n grows — the sublinearity only
// asymptotics can show.
func E18Scaling(seed int64, quick bool, eng engine.Options) Table {
	sizes := []int{1024, 2048, 4096, 8192}
	if quick {
		sizes = []int{512, 1024}
	}
	const delta = 1.0 / 3.0
	t := Table{
		ID:    "E18",
		Title: "Theorem 2.8 as a series: space vs input as n grows (δ=1/3)",
		Head:  []string{"n", "m", "input(words)", "space(words)", "space/input", "m·n^δ (ref)", "passes", "ratio"},
	}
	for _, n := range sizes {
		m := 2 * n
		// k fixed: set sizes grow like n/k, so the input grows like
		// m·n/k ~ n² while iterSetCover's space grows like m·n^δ ~ n^{1+δ}.
		const k = 16
		in, _, opt, err := gen.Planted(gen.PlantedConfig{N: n, M: m, K: k, Seed: seed})
		if err != nil {
			panic(err)
		}
		inputWords := int64(0)
		for _, s := range in.Sets {
			inputWords += stream.WordsForElems(len(s.Elems))
		}
		repo := stream.NewSliceRepo(in)
		res, err := core.IterSetCover(repo, core.Options{Delta: delta, Offline: offline.Greedy{}, Seed: seed, Engine: eng})
		if err != nil {
			t.AddRow(d(n), d(m), d64(inputWords), "failed", "-", "-", "-", "-")
			continue
		}
		ref := float64(m) * math.Pow(float64(n), delta)
		t.AddRow(d(n), d(m), d64(inputWords), d64(res.SpaceWords),
			f2c(float64(res.SpaceWords)/float64(inputWords)), f1(ref),
			d(res.Passes), f2c(res.Ratio(opt)))
	}
	t.AddNote("m=2n, OPT=16 fixed; input ~ n²/16, space ~ m·n^δ ~ n^{1+δ} ⇒ the ratio column must fall")
	return t
}
