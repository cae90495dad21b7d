package baseline

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// The ε-Partial Set Cover contract: coverage reaches at least 1-ε, and the
// partial cover is never larger than the full one (same seed/instance).
func TestPartialVariantsContract(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 600, M: 1200, K: 10, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		name    string
		full    func(stream.Repository, engine.Options) (setcover.Stats, error)
		partial func(stream.Repository, float64, engine.Options) (setcover.Stats, error)
	}
	pairs := []pair{
		{"emek-rosen", EmekRosen, EmekRosenPartial},
		{"threshold", ThresholdGreedy, ThresholdGreedyPartial},
		{"greedy-npass", MultiPassGreedy, MultiPassGreedyPartial},
		{"cw16", func(r stream.Repository, eo engine.Options) (setcover.Stats, error) {
			return ChakrabartiWirth(r, 3, eo)
		},
			func(r stream.Repository, eps float64, eo engine.Options) (setcover.Stats, error) {
				return ChakrabartiWirthPartial(r, 3, eps, eo)
			}},
	}
	for _, p := range pairs {
		full, err := p.full(stream.NewSliceRepo(in), engine.Options{})
		if err != nil {
			t.Fatalf("%s full: %v", p.name, err)
		}
		prev := len(full.Cover)
		for _, eps := range []float64{0.01, 0.05, 0.2} {
			st, err := p.partial(stream.NewSliceRepo(in), eps, engine.Options{})
			if err != nil {
				t.Fatalf("%s eps=%v: %v", p.name, eps, err)
			}
			if !in.IsPartialCover(st.Cover, eps) {
				t.Fatalf("%s eps=%v: coverage %.3f below 1-eps",
					p.name, eps, in.CoverageFraction(st.Cover))
			}
			if len(st.Cover) > prev {
				t.Fatalf("%s eps=%v: partial cover (%d) larger than stricter cover (%d)",
					p.name, eps, len(st.Cover), prev)
			}
			prev = len(st.Cover)
		}
		// eps=0 must coincide with the full variant.
		zero, err := p.partial(stream.NewSliceRepo(in), 0, engine.Options{})
		if err != nil {
			t.Fatalf("%s eps=0: %v", p.name, err)
		}
		if len(zero.Cover) != len(full.Cover) {
			t.Fatalf("%s: eps=0 cover %d != full cover %d", p.name, len(zero.Cover), len(full.Cover))
		}
	}
}

func TestPartialBadEps(t *testing.T) {
	in, _, _, _ := gen.Planted(gen.PlantedConfig{N: 20, M: 20, K: 2, Seed: 1})
	for _, eps := range []float64{-0.1, 1, 1.5, math.NaN()} {
		if _, err := EmekRosenPartial(stream.NewSliceRepo(in), eps, engine.Options{}); err == nil {
			t.Errorf("eps=%v accepted", eps)
		}
	}
	// A tiny ε is legal: it allows no leftover, so the cover is full.
	if st, err := EmekRosenPartial(stream.NewSliceRepo(in), 1e-300, engine.Options{}); err != nil || !in.IsCover(st.Cover) {
		t.Errorf("eps=1e-300: err %v, full cover %v", err, in.IsCover(st.Cover))
	}
}

// Partial covering makes otherwise-infeasible instances solvable when the
// uncoverable elements fit in the allowance.
func TestPartialToleratesUncoverableElements(t *testing.T) {
	in := &setcover.Instance{N: 10, Sets: []setcover.Set{
		{Elems: []setcover.Elem{0, 1, 2, 3, 4, 5, 6, 7, 8}}, // element 9 uncoverable
	}}
	in.Normalize()
	if _, err := EmekRosen(stream.NewSliceRepo(in), engine.Options{}); err == nil {
		t.Fatal("full cover should be infeasible")
	}
	st, err := EmekRosenPartial(stream.NewSliceRepo(in), 0.1, engine.Options{})
	if err != nil {
		t.Fatalf("eps=0.1 should tolerate one uncoverable element: %v", err)
	}
	if !in.IsPartialCover(st.Cover, 0.1) {
		t.Fatal("partial cover below fraction")
	}
}

func TestCoverageFractionHelpers(t *testing.T) {
	in := &setcover.Instance{N: 4, Sets: []setcover.Set{
		{Elems: []setcover.Elem{0, 1}},
		{Elems: []setcover.Elem{2}},
	}}
	in.Normalize()
	if f := in.CoverageFraction([]int{0}); f != 0.5 {
		t.Fatalf("fraction = %v, want 0.5", f)
	}
	if !in.IsPartialCover([]int{0, 1}, 0.25) {
		t.Fatal("3/4 coverage satisfies eps=0.25")
	}
	if in.IsPartialCover([]int{0}, 0.25) {
		t.Fatal("1/2 coverage does not satisfy eps=0.25")
	}
	empty := &setcover.Instance{N: 0}
	if empty.CoverageFraction(nil) != 1 {
		t.Fatal("empty universe is fully covered")
	}
}
