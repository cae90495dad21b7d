package experiments

import (
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/maxcover"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// E13PartialCover measures the ε-Partial Set Cover generalization that
// [ER14] and [CW16] prove their bounds for (Section 1): as ε grows, the
// cover shrinks while coverage stays above 1-ε.
func E13PartialCover(seed int64, quick bool, eng engine.Options) Table {
	n, m, k := 2000, 4000, 25
	if quick {
		n, m, k = 500, 1000, 8
	}
	in, _, opt, err := gen.Planted(gen.PlantedConfig{N: n, M: m, K: k, Seed: seed})
	if err != nil {
		panic(err)
	}
	t := Table{
		ID:    "E13",
		Title: "ε-Partial Set Cover (the [ER14]/[CW16] generalization)",
		Head:  []string{"algorithm", "eps", "cover", "coverage", "passes"},
	}
	t.AddNote("planted instance: n=%d m=%d OPT=%d", n, m, opt)
	for _, eps := range []float64{0, 0.05, 0.2} {
		st, err := baseline.EmekRosenPartial(stream.NewSliceRepo(in), eps, eng)
		addPartialRow(&t, in, st, err, eps)
		st, err = baseline.ChakrabartiWirthPartial(stream.NewSliceRepo(in), 2, eps, eng)
		addPartialRow(&t, in, st, err, eps)
		res, err := core.IterSetCover(stream.NewSliceRepo(in), core.Options{
			Delta: 0.5, Seed: seed, PartialEps: eps, Engine: eng,
		})
		addPartialRow(&t, in, res.Stats, err, eps)
	}
	return t
}

func addPartialRow(t *Table, in *setcover.Instance, st setcover.Stats, err error, eps float64) {
	if err != nil {
		t.AddRow(st.Algorithm, f2c(eps), "failed", "-", "-")
		return
	}
	t.AddRow(st.Algorithm, f2c(eps), d(len(st.Cover)), f2c(in.CoverageFraction(st.Cover)), d(st.Passes))
}

// E14CanonicalAblation runs algGeomSC on the adversarial Figure 1.2 stream
// with and without the Lemma 4.2 rectangle splitting: without it, the
// distinct stored projections (and the space) blow up, which is exactly why
// the canonical representation exists.
func E14CanonicalAblation(seed int64, quick bool, eng engine.Options) Table {
	n := 128
	if quick {
		n = 48
	}
	t := Table{
		ID:    "E14",
		Title: "Ablation: canonical splitting (Lemma 4.2) on the Figure 1.2 stream",
		Head:  []string{"variant", "pieces stored (peak)", "space(words)", "cover", "passes"},
	}
	in, err := geom.Figure12(n)
	if err != nil {
		panic(err)
	}
	t.AddNote("Figure 1.2 instance: n=%d points, m=n²/4=%d rectangles, OPT=n/2=%d", n, in.M(), n/2)
	for _, disable := range []bool{false, true} {
		repo := geom.NewShapeRepo(in)
		repo.Precompute()
		res, err := geom.AlgGeomSC(repo, geom.GeomOptions{
			Delta: 0.25, Seed: seed, DisableCanonical: disable,
			KMin: 16, KMax: 256, Engine: eng,
		})
		name := "canonical split (Lemma 4.2)"
		if disable {
			name = "raw projections"
		}
		if err != nil {
			t.AddRow(name, "-", "-", "failed", "-")
			continue
		}
		t.AddRow(name, d(res.CanonicalPiecesPeak), d64(res.SpaceWords), d(len(res.Cover)), d(res.Passes))
	}
	return t
}

// E15ProtocolSimulation makes Observation 5.9 executable: streaming
// algorithms run over a player-partitioned repository and every boundary
// crossing ships the working memory once, giving the induced protocol's
// communication bits. Comparing against the instance's description size
// shows which algorithms would beat the naive protocol (and by Theorem 5.4,
// exact ones cannot at few passes).
func E15ProtocolSimulation(seed int64, quick bool, eng engine.Options) Table {
	t := Table{
		ID:    "E15",
		Title: "Observation 5.9: streaming algorithms as communication protocols",
		Head:  []string{"workload", "algorithm", "players", "passes", "crossings", "space(w)", "protocol bits", "input bits"},
	}
	n, m, k := 2000, 4000, 25
	if quick {
		n, m, k = 400, 800, 8
	}
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: n, M: m, K: k, Seed: seed})
	if err != nil {
		panic(err)
	}
	inputBits := int64(0)
	for _, s := range in.Sets {
		inputBits += 32 * int64(len(s.Elems))
	}
	const players = 4
	runs := []struct {
		name string
		run  func(repo stream.Repository) (setcover.Stats, error)
	}{
		{"iterSetCover δ=1/2", func(repo stream.Repository) (setcover.Stats, error) {
			r, err := core.IterSetCover(repo, core.Options{Delta: 0.5, Seed: seed, Engine: eng})
			return r.Stats, err
		}},
		{"emek-rosen (1 pass)", func(repo stream.Repository) (setcover.Stats, error) {
			return baseline.EmekRosen(repo, eng)
		}},
		{"threshold-greedy", func(repo stream.Repository) (setcover.Stats, error) {
			return baseline.ThresholdGreedy(repo, eng)
		}},
	}
	for _, r := range runs {
		repo := comm.NewProtocolRepo(stream.NewSliceRepo(in), players)
		st, err := r.run(repo)
		if err != nil {
			t.AddRow("planted", r.name, d(players), "-", "-", "-", "failed", d64(inputBits))
			continue
		}
		bits := comm.ProtocolCost(repo.Crossings(), st.SpaceWords)
		t.AddRow("planted", r.name, d(players), d(st.Passes), d(repo.Crossings()),
			d64(st.SpaceWords), d64(bits), d64(inputBits))
	}

	// The Section 5 reduced instance, partitioned among its 2p natural
	// players.
	rng := rand.New(rand.NewSource(seed))
	isc := comm.RandomISC(6, 2, 1.2, rng)
	inst, meta := comm.BuildSetCover(isc)
	redBits := int64(0)
	for _, s := range inst.Sets {
		redBits += 32 * int64(len(s.Elems))
	}
	repo := comm.NewProtocolRepo(stream.NewSliceRepo(inst), 2*meta.P)
	res, err := core.IterSetCover(repo, core.Options{Delta: 0.5, Seed: seed, Engine: eng})
	if err == nil {
		bits := comm.ProtocolCost(repo.Crossings(), res.SpaceWords)
		t.AddRow("ISC-reduced (n=6,p=2)", "iterSetCover δ=1/2", d(2*meta.P), d(res.Passes),
			d(repo.Crossings()), d64(res.SpaceWords), d64(bits), d64(redBits))
	}
	t.AddNote("protocol bits = crossings × space × 64; [GO13] lower-bounds this for exact ISC deciders")
	return t
}

// E16MaxKCover exercises the [SG09] primitive directly: offline greedy vs
// the one-pass streaming thresholding, plus the full SG09 SetCover loop.
func E16MaxKCover(seed int64, quick bool, eng engine.Options) Table {
	n, m, k := 2000, 4000, 20
	if quick {
		n, m, k = 400, 800, 8
	}
	in, _, opt, err := gen.Planted(gen.PlantedConfig{N: n, M: m, K: k, Seed: seed})
	if err != nil {
		panic(err)
	}
	t := Table{
		ID:    "E16",
		Title: "Max k-Cover ([SG09]'s primitive) and the SG09 SetCover loop",
		Head:  []string{"component", "covered / cover", "of n / vs OPT", "passes", "space(words)"},
	}
	t.AddNote("planted instance: n=%d m=%d OPT=%d; budget k=OPT", n, m, opt)

	g, err := maxcover.Greedy(in, k)
	if err != nil {
		panic(err)
	}
	t.AddRow("offline greedy max-k-cover", d(g.Covered), f2c(float64(g.Covered)/float64(n)), "-", "-")

	s, err := maxcover.Streaming(stream.NewSliceRepo(in), k, eng)
	if err != nil {
		panic(err)
	}
	t.AddRow("one-pass streaming max-k-cover", d(s.Covered), f2c(float64(s.Covered)/float64(n)),
		d(s.Passes), d64(s.SpaceWords))

	st, err := maxcover.SahaGetoorSetCover(stream.NewSliceRepo(in), eng)
	if err != nil {
		panic(err)
	}
	st = st.Verify(in)
	t.AddRow("SG09 set cover (repeated max-k-cover)", d(len(st.Cover)), f2c(st.Ratio(opt)),
		d(st.Passes), d64(st.SpaceWords))
	return t
}
