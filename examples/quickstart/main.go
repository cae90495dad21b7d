// Quickstart: the smallest possible tour of the library — build an instance,
// stream it, run the paper's algorithm, inspect the verified result.
package main

import (
	"fmt"
	"log"

	ssc "repro"
)

func main() {
	// A tiny hand-written instance: 6 elements, 4 sets.
	in := &ssc.Instance{
		N: 6,
		Sets: []ssc.Set{
			{Elems: []ssc.Elem{0, 1, 2}},
			{Elems: []ssc.Elem{2, 3}},
			{Elems: []ssc.Elem{3, 4, 5}},
			{Elems: []ssc.Elem{0, 5}},
		},
	}
	in.Normalize()

	// The streaming model: sets live in a read-only repository; every scan
	// is counted as a pass.
	repo := ssc.NewRepository(in)

	// iterSetCover (Figure 1.3 / Theorem 2.8): 2/δ passes, Õ(m·n^δ) space.
	res, err := ssc.IterSetCover(repo, ssc.Options{Delta: 0.5, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cover: %v (valid=%v)\n", res.Cover, in.IsCover(res.Cover))
	fmt.Printf("passes: %d, space: %d words, best guess k: %d\n",
		res.Passes, res.SpaceWords, res.BestK)

	// Compare with the one-pass store-everything greedy strawman.
	greedy, err := ssc.OnePassGreedy(ssc.NewRepository(in), ssc.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greedy-1pass: cover %d sets, %d passes, %d words\n",
		len(greedy.Cover), greedy.Passes, greedy.SpaceWords)
}
