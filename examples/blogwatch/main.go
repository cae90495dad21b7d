// Blogwatch: the multi-topic blog-watch scenario that motivated streaming
// set cover in Saha–Getoor [SG09]: pick the fewest feeds (blogs) so that
// every topic of interest is covered by at least one subscribed feed, while
// feed descriptions stream from a catalog too large to hold.
//
// The demo runs the pass-budget family: one-pass (Emek–Rosén), p-pass
// (Chakrabarti–Wirth), log n-pass (threshold greedy) and the paper's
// iterSetCover, showing how each extra pass buys approximation quality at
// sub-linear memory.
package main

import (
	"fmt"
	"log"

	ssc "repro"
)

func main() {
	const (
		topics = 3000
		feeds  = 6000
		niche  = 30 // planted minimal subscription list
	)
	in, _, opt, err := ssc.Planted(ssc.PlantedConfig{N: topics, M: feeds, K: niche, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("blogwatch: %d topics, %d feeds, optimal subscription list: %d feeds\n\n", topics, feeds, opt)

	type row struct {
		name string
		st   ssc.Stats
	}
	var rows []row
	add := func(name string, st ssc.Stats, err error) {
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		st = st.Verify(in)
		if !st.Valid {
			log.Fatalf("%s: invalid subscription list", name)
		}
		rows = append(rows, row{name, st})
	}

	st, err := ssc.EmekRosen(ssc.NewRepository(in), ssc.EngineOptions{})
	add("1 pass (ER14)", st, err)
	st, err = ssc.ChakrabartiWirth(ssc.NewRepository(in), 2, ssc.EngineOptions{})
	add("2 passes (CW16)", st, err)
	st, err = ssc.ChakrabartiWirth(ssc.NewRepository(in), 4, ssc.EngineOptions{})
	add("4 passes (CW16)", st, err)
	st, err = ssc.ThresholdGreedy(ssc.NewRepository(in), ssc.EngineOptions{})
	add("log n passes (SG09)", st, err)
	res, err := ssc.IterSetCover(ssc.NewRepository(in), ssc.Options{Delta: 0.5, Seed: 11})
	add("4 passes (iterSetCover)", res.Stats, err)

	fmt.Printf("%-26s %6s %8s %10s %7s\n", "strategy", "feeds", "passes", "memory(w)", "ratio")
	for _, r := range rows {
		fmt.Printf("%-26s %6d %8d %10d %7.2f\n",
			r.name, len(r.st.Cover), r.st.Passes, r.st.SpaceWords, r.st.Ratio(opt))
	}
	fmt.Println("\nEach pass over the feed catalog buys a better subscription list;")
	fmt.Println("iterSetCover gets the log-factor list quality at a fixed 2/δ passes.")
}
