// Webhost: the web-host analysis workload from the paper's introduction
// ([CKT10]-style): a crawler must pick the fewest mirror hosts whose
// combined page inventories cover a target URL corpus. Inventories are far
// too large to keep in memory, but they can be scanned from the catalog —
// exactly the streaming SetCover model.
//
// The demo builds a synthetic mirror network with a planted optimal fleet,
// then compares iterSetCover against the one-pass greedy strawman and the
// one-pass Emek–Rosén algorithm on passes, memory, and fleet size.
package main

import (
	"fmt"
	"log"

	ssc "repro"
)

func main() {
	const (
		urls  = 5000 // target corpus size (elements)
		hosts = 8000 // candidate mirror hosts (sets)
		fleet = 40   // planted optimal fleet size
	)
	// Planted instance: the corpus is partitioned across `fleet` primary
	// hosts; the rest are partial mirrors of comparable inventory size.
	in, primaries, opt, err := ssc.Planted(ssc.PlantedConfig{
		N: urls, M: hosts, K: fleet, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d URLs, %d candidate hosts, planted fleet: %d primaries\n",
		urls, hosts, len(primaries))

	type runner struct {
		name string
		run  func() (ssc.Stats, error)
	}
	runners := []runner{
		{"iterSetCover δ=1/2", func() (ssc.Stats, error) {
			r, err := ssc.IterSetCover(ssc.NewRepository(in), ssc.Options{Delta: 0.5, Seed: 7})
			return r.Stats, err
		}},
		{"iterSetCover δ=1/4", func() (ssc.Stats, error) {
			r, err := ssc.IterSetCover(ssc.NewRepository(in), ssc.Options{Delta: 0.25, Seed: 7})
			return r.Stats, err
		}},
		{"greedy (store all)", func() (ssc.Stats, error) {
			return ssc.OnePassGreedy(ssc.NewRepository(in), ssc.EngineOptions{})
		}},
		{"Emek-Rosén (1 pass)", func() (ssc.Stats, error) {
			return ssc.EmekRosen(ssc.NewRepository(in), ssc.EngineOptions{})
		}},
	}

	fmt.Printf("\n%-22s %8s %8s %12s %8s\n", "algorithm", "fleet", "passes", "memory(w)", "ratio")
	for _, r := range runners {
		st, err := r.run()
		if err != nil {
			log.Fatalf("%s: %v", r.name, err)
		}
		st = st.Verify(in)
		if !st.Valid {
			log.Fatalf("%s returned an invalid fleet", r.name)
		}
		fmt.Printf("%-22s %8d %8d %12d %8.2f\n",
			r.name, len(st.Cover), st.Passes, st.SpaceWords, st.Ratio(opt))
	}
	fmt.Println("\niterSetCover reads the catalog a handful of times and keeps only")
	fmt.Println("sampled projections in memory; greedy needs the whole catalog resident.")
}
