package core

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/offline"
	"repro/internal/setcover"
	"repro/internal/stream"
)

func TestPartialEpsCoversFraction(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 800, M: 1600, K: 10, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	full, err := IterSetCover(stream.NewSliceRepo(in), Options{Delta: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.02, 0.1, 0.3} {
		res, err := IterSetCover(stream.NewSliceRepo(in), Options{Delta: 0.5, Seed: 3, PartialEps: eps})
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		if !in.IsPartialCover(res.Cover, eps) {
			t.Fatalf("eps=%v: coverage %.3f below 1-eps", eps, in.CoverageFraction(res.Cover))
		}
		if res.CoveredFraction < 1-eps-1e-9 {
			t.Fatalf("eps=%v: reported fraction %.3f below 1-eps", eps, res.CoveredFraction)
		}
		if len(res.Cover) > len(full.Cover) {
			t.Fatalf("eps=%v: partial cover (%d) larger than full (%d)", eps, len(res.Cover), len(full.Cover))
		}
	}
}

func TestPartialEpsValidation(t *testing.T) {
	in, _, _, _ := gen.Planted(gen.PlantedConfig{N: 32, M: 32, K: 2, Seed: 1})
	for _, eps := range []float64{-0.5, 1, 2, math.NaN()} {
		if _, err := IterSetCover(stream.NewSliceRepo(in), Options{Delta: 0.5, PartialEps: eps}); err == nil {
			t.Errorf("eps=%v accepted", eps)
		}
	}
	// A tiny ε is legal: it allows no leftover, so the cover is full.
	if res, err := IterSetCover(stream.NewSliceRepo(in), Options{Delta: 0.5, PartialEps: 1e-300}); err != nil || !in.IsCover(res.Cover) {
		t.Errorf("eps=1e-300: err %v, full cover %v", err, in.IsCover(res.Cover))
	}
}

func TestFinalPatchRescuesUndersampledRun(t *testing.T) {
	// With a tiny sample and the paper's fixed 1/δ iterations, the run
	// normally fails; the Section 4.2-style final patch pass rescues it at
	// the cost of one extra pass and O(leftovers) extra sets.
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 1024, M: 1024, K: 4, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	tiny := func(k, n, m, uncovered int) int { return 6 }

	_, errNoPatch := IterSetCover(stream.NewSliceRepo(in), Options{
		Delta: 0.5, Offline: offline.Greedy{}, Seed: 5, Sizer: tiny, KMin: 4, KMax: 4,
	})
	if errNoPatch == nil {
		t.Skip("undersampled run unexpectedly converged; patch not exercised")
	}

	res, err := IterSetCover(stream.NewSliceRepo(in), Options{
		Delta: 0.5, Offline: offline.Greedy{}, Seed: 5, Sizer: tiny, KMin: 4, KMax: 4,
		FinalPatch: true,
	})
	if err != nil {
		t.Fatalf("final patch should rescue the run: %v", err)
	}
	if !in.IsCover(res.Cover) {
		t.Fatal("patched result is not a cover")
	}
	// 2 iterations x 2 passes + 1 patch pass.
	if res.Passes != 5 {
		t.Fatalf("passes = %d, want 5 (4 + patch)", res.Passes)
	}
}

func TestFinalPatchNoOpWhenConverged(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 256, M: 512, K: 4, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	with, err := IterSetCover(stream.NewSliceRepo(in), Options{Delta: 0.5, Seed: 7, FinalPatch: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := IterSetCover(stream.NewSliceRepo(in), Options{Delta: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Some guess converges on this instance, so the rescue pass never runs.
	if with.Passes != without.Passes {
		t.Fatalf("patch added a pass on a converged run: %d vs %d", with.Passes, without.Passes)
	}
	if len(with.Cover) != len(without.Cover) {
		t.Fatalf("patch changed the result on a converged run: %d vs %d", len(with.Cover), len(without.Cover))
	}
}

func TestCoveredFractionReported(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 200, M: 400, K: 4, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	res, err := IterSetCover(stream.NewSliceRepo(in), Options{Delta: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.CoveredFraction != 1 {
		t.Fatalf("full cover should report fraction 1, got %v", res.CoveredFraction)
	}
	empty := stream.NewSliceRepo(&setcover.Instance{N: 0})
	r0, err := IterSetCover(empty, Options{Delta: 0.5})
	if err != nil || r0.CoveredFraction != 1 {
		t.Fatalf("empty universe: fraction %v err %v", r0.CoveredFraction, err)
	}
}
