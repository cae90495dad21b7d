package streamsetcover_test

import (
	"fmt"

	ssc "repro"
)

// The basic workflow: generate an instance, stream it, cover it.
func ExampleIterSetCover() {
	in, _, opt, err := ssc.Planted(ssc.PlantedConfig{N: 400, M: 800, K: 8, Seed: 1})
	if err != nil {
		panic(err)
	}
	repo := ssc.NewRepository(in)
	res, err := ssc.IterSetCover(repo, ssc.Options{Delta: 0.5, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("valid cover:", in.IsCover(res.Cover))
	fmt.Println("passes within 2/delta:", res.Passes <= 4)
	fmt.Println("cover within 10x of opt:", len(res.Cover) <= 10*opt)
	// Output:
	// valid cover: true
	// passes within 2/delta: true
	// cover within 10x of opt: true
}

// The ε-partial variant covers at least a (1-ε) fraction with fewer sets.
func ExampleIterSetCover_partial() {
	in, _, _, err := ssc.Planted(ssc.PlantedConfig{N: 400, M: 800, K: 8, Seed: 1})
	if err != nil {
		panic(err)
	}
	full, _ := ssc.IterSetCover(ssc.NewRepository(in), ssc.Options{Delta: 0.5, Seed: 1})
	part, _ := ssc.IterSetCover(ssc.NewRepository(in), ssc.Options{Delta: 0.5, Seed: 1, PartialEps: 0.1})
	fmt.Println("partial satisfies 90% goal:", in.IsPartialCover(part.Cover, 0.1))
	fmt.Println("partial no larger than full:", len(part.Cover) <= len(full.Cover))
	// Output:
	// partial satisfies 90% goal: true
	// partial no larger than full: true
}

// One-pass baselines trade approximation for passes.
func ExampleEmekRosen() {
	in, _, _, err := ssc.Planted(ssc.PlantedConfig{N: 400, M: 800, K: 8, Seed: 2})
	if err != nil {
		panic(err)
	}
	st, err := ssc.EmekRosen(ssc.NewRepository(in), ssc.EngineOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("passes:", st.Passes)
	fmt.Println("valid:", in.IsCover(st.Cover))
	// Output:
	// passes: 1
	// valid: true
}

// The geometric algorithm covers points with streamed shapes in Õ(n) space.
func ExampleAlgGeomSC() {
	gi, _, err := ssc.PlantedDisks(200, 800, 4, 3)
	if err != nil {
		panic(err)
	}
	repo := ssc.NewShapeRepo(gi)
	repo.Precompute()
	res, err := ssc.AlgGeomSC(repo, ssc.GeomOptions{Delta: 0.25, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("valid cover:", gi.IsCover(res.Cover))
	fmt.Println("constant passes:", res.Passes <= 13)
	// Output:
	// valid cover: true
	// constant passes: true
}

// Instances round-trip through the text format.
func ExampleWriteInstance() {
	in := &ssc.Instance{N: 3, Sets: []ssc.Set{{Elems: []ssc.Elem{0, 1}}, {Elems: []ssc.Elem{2}}}}
	in.Normalize()
	var s stringsBuilder
	if err := ssc.WriteInstance(&s, in); err != nil {
		panic(err)
	}
	fmt.Print(s.String())
	// Output:
	// setcover 3 2
	// 0 0 1
	// 1 2
}

// stringsBuilder is a minimal io.Writer to keep the example self-contained.
type stringsBuilder struct{ b []byte }

func (s *stringsBuilder) Write(p []byte) (int, error) { s.b = append(s.b, p...); return len(p), nil }
func (s *stringsBuilder) String() string              { return string(s.b) }
