package experiments

import (
	"math"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/offline"
	"repro/internal/stream"
)

// E17Tightness exhibits the worst cases that separate the Figure 1.1 rows:
// the classic Θ(log n) trap for greedy (any ρ = ln n algorithm pays it) and
// the Θ(√n) trap for the one-pass [ER14] algorithm (whose tightness the
// paper cites). iterSetCover with the exact offline solver (ρ = 1) escapes
// the greedy trap; nothing one-pass escapes the ER trap (Theorem 3.8 says
// even randomization cannot help below Ω(mn) space).
func E17Tightness(seed int64, quick bool, eng engine.Options) Table {
	t := Table{
		ID:    "E17",
		Title: "Tightness traps: where each algorithm's factor actually bites",
		Head:  []string{"instance", "algorithm", "cover", "OPT", "ratio", "reference factor"},
	}

	// Trap 1: greedy's Θ(log n).
	levels := 10
	if quick {
		levels = 7
	}
	trap, opt := gen.GreedyTrap(levels)
	logn := math.Log2(float64(trap.N))
	g, err := baseline.OnePassGreedy(stream.NewSliceRepo(trap), eng)
	if err != nil {
		panic(err)
	}
	t.AddRow("greedy-trap n="+d(trap.N), "greedy-1pass", d(len(g.Cover)), d(opt),
		f2c(float64(len(g.Cover))/float64(opt)), "Θ(log n) = "+f1(logn))
	ex, err := core.IterSetCover(stream.NewSliceRepo(trap), core.Options{
		Delta: 0.5, Offline: offline.Exact{}, Seed: seed, Engine: eng,
	})
	if err != nil {
		panic(err)
	}
	t.AddRow("greedy-trap n="+d(trap.N), "iterSetCover+exact (ρ=1)", d(len(ex.Cover)), d(opt),
		f2c(float64(len(ex.Cover))/float64(opt)), "O(1/δ) = 2")

	// Trap 2: ER14's Θ(√n).
	b := 32
	if quick {
		b = 16
	}
	ertrap, eropt := gen.EmekRosenTrap(b)
	er, err := baseline.EmekRosen(stream.NewSliceRepo(ertrap), eng)
	if err != nil {
		panic(err)
	}
	t.AddRow("er-trap n="+d(ertrap.N), "emek-rosen[ER14]", d(len(er.Cover)), d(eropt),
		f2c(float64(len(er.Cover))/float64(eropt)), "Θ(√n) = "+f1(math.Sqrt(float64(ertrap.N))))
	it2, err := core.IterSetCover(stream.NewSliceRepo(ertrap), core.Options{Delta: 0.5, Seed: seed, Engine: eng})
	if err != nil {
		panic(err)
	}
	t.AddRow("er-trap n="+d(ertrap.N), "iterSetCover δ=1/2", d(len(it2.Cover)), d(eropt),
		f2c(float64(len(it2.Cover))/float64(eropt)), "O(ρ/δ)")

	t.AddNote("greedy hits its log n factor on the halving trap; the exact-offline iterSetCover stays at OPT-level")
	t.AddNote("ER14 outputs √n sets on the late-universal-set stream; multi-pass algorithms recover")
	return t
}
