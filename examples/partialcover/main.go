// Partialcover: the ε-Partial Set Cover problem — cover at least a (1-ε)
// fraction of the universe — which is the generalization [ER14] and [CW16]
// actually prove their streaming bounds for (paper, Section 1). A monitoring
// deployment rarely needs 100% coverage; tolerating a small uncovered tail
// buys a much smaller cover.
//
// The demo sweeps ε and shows the cover shrinking across three algorithms
// while the coverage guarantee holds.
package main

import (
	"fmt"
	"log"

	ssc "repro"
)

func main() {
	const (
		n = 3000
		m = 6000
		k = 25
	)
	in, _, opt, err := ssc.Planted(ssc.PlantedConfig{N: n, M: m, K: k, Seed: 13})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance: n=%d sensors, m=%d probes, full-coverage OPT=%d\n\n", n, m, opt)
	fmt.Printf("%-26s %6s %8s %10s %10s\n", "algorithm", "eps", "cover", "coverage", "goal")

	for _, eps := range []float64{0, 0.01, 0.05, 0.1, 0.25} {
		res, err := ssc.IterSetCover(ssc.NewRepository(in), ssc.Options{
			Delta: 0.5, Seed: 13, PartialEps: eps,
		})
		if err != nil {
			log.Fatalf("iter eps=%v: %v", eps, err)
		}
		report(in, "iterSetCover δ=1/2", eps, res.Cover)

		st, err := ssc.EmekRosenPartial(ssc.NewRepository(in), eps, ssc.EngineOptions{})
		if err != nil {
			log.Fatalf("er14 eps=%v: %v", eps, err)
		}
		report(in, "Emek-Rosén (1 pass)", eps, st.Cover)

		st, err = ssc.ChakrabartiWirthPartial(ssc.NewRepository(in), 3, eps, ssc.EngineOptions{})
		if err != nil {
			log.Fatalf("cw16 eps=%v: %v", eps, err)
		}
		report(in, "Chakrabarti-Wirth p=3", eps, st.Cover)
		fmt.Println()
	}
	fmt.Println("every row satisfies coverage >= 1-eps; tolerating a small tail")
	fmt.Println("shrinks the cover substantially — the ε-Partial trade-off.")
}

func report(in *ssc.Instance, name string, eps float64, cover []int) {
	frac := in.CoverageFraction(cover)
	if !in.IsPartialCover(cover, eps) {
		log.Fatalf("%s eps=%v: coverage %.3f below goal", name, eps, frac)
	}
	fmt.Printf("%-26s %6.2f %8d %10.3f %10.3f\n", name, eps, len(cover), frac, 1-eps)
}
