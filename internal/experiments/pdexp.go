package experiments

import (
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/pd"
	"repro/internal/stream"
)

// E19PrimalDual runs the batched primal-dual on the bounded-VC-dimension
// worst-case family (OPT = 1: the last set alone covers the universe), in
// both reveal modes. The dedicated mode raises every undercovered batch
// element's dual simultaneously and spends one pass per element batch; the
// trivial baseline reveals elements one at a time and pays n passes for the
// same update rule. Rows are produced for unit and log-uniform per-set
// costs — the weighted rows exercise the SCWT-backed cost model end to end.
func E19PrimalDual(seed int64, quick bool, eng engine.Options) Table {
	t := Table{
		ID:    "E19",
		Title: "Batched primal-dual on the VC worst case: dedicated vs trivial reveal",
		Head:  []string{"vcdim", "m", "n", "weights", "mode", "cover", "cost", "passes", "rounds", "f", "space"},
	}

	type cfg struct {
		vcdim, m int
	}
	cfgs := []cfg{{3, 40}, {4, 60}}
	if quick {
		cfgs = []cfg{{3, 24}}
	}
	weightings := []string{"unit", "loguniform"}

	for _, c := range cfgs {
		for _, wk := range weightings {
			in, err := gen.VCWorstCase(gen.VCWorstCaseConfig{M: c.m, VCDim: c.vcdim})
			if err != nil {
				panic(err)
			}
			if wk == "loguniform" {
				ws, err := gen.WeightedSlice(gen.WeightedConfig{
					Kind: gen.WeightLogUniform, M: c.m, Lo: 0.1, Hi: 10, Seed: seed,
				})
				if err != nil {
					panic(err)
				}
				in.Weights = ws
			}
			for _, mode := range []pd.Mode{pd.ModeDedicated, pd.ModeTrivial} {
				res, err := pd.BatchedPrimalDual(stream.NewSliceRepo(in), pd.Options{
					Mode: mode, ElemBatch: 1 << (c.vcdim - 1), Engine: eng,
				})
				if err != nil {
					panic(err)
				}
				t.AddRow(d(c.vcdim), d(c.m), d(in.N), wk, mode.String(),
					d(len(res.Cover)), f2c(res.CoverWeight),
					d(res.Passes), d(res.Rounds), d(res.MaxFrequency), d64(res.SpaceWords))
			}
		}
	}

	t.AddNote("OPT = 1 on every row (the last set covers the universe); cover/cost gaps are the price of committing per batch")
	t.AddNote("dedicated reveals 2^{d-1} elements per batch; trivial pays one pass per element for the same dual-update rule")
	return t
}
