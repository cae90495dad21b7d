package offline

import (
	"repro/internal/bitset"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// Projections is the projection store of Figure 1.3, the m·n^δ term of
// Lemma 2.2: each stored set's projection r∩L onto the sampled elements L,
// kept from the pass that stores it to the offline solve that covers L.
// iterSetCover, [DIMV14] and algGeomSC's canonical pieces share it.
//
// Projections live in one element arena delimited by offsets. Add hands out
// no views into it, so an outgrown array is garbage at once and the live
// heap stays near what Add charges.
//
// Stored projections are sorted-unique because stream sets are (the
// setcover.Set and stream.NewFuncRepo contracts) and filtering keeps order.
// Solve renumbers by rank in L, which keeps order too, so nothing re-sorts.
type Projections struct {
	weight func(int) float64
	elems  []setcover.Elem
	ends   []int32 // projection i is elems[ends[i-1]:ends[i]]
	ids    []int
	costs  []float64
}

// NewProjections returns an empty store. weight is the repository's cost
// function (stream.WeightFunc); with a nil weight no costs are stored and
// the sub-instance is unweighted. The zero value is an unweighted store.
func NewProjections(weight func(int) float64) *Projections {
	return &Projections{weight: weight}
}

// Reset empties the store and keeps its arrays for the next fill.
func (p *Projections) Reset() {
	p.elems, p.ends, p.ids, p.costs = p.elems[:0], p.ends[:0], p.ids[:0], p.costs[:0]
}

// Add stores the members of elems that are in mask as the projection of
// stream set id, and returns the words that costs: the packed elements plus
// one ID word, plus one cost word when weighted. A set with no member in
// mask is not stored and costs nothing.
func (p *Projections) Add(id int, elems []setcover.Elem, mask *bitset.Bitset) int64 {
	start := len(p.elems)
	p.elems = mask.AppendMembers(p.elems, elems)
	k := len(p.elems) - start
	if k == 0 {
		return 0
	}
	p.ends = append(p.ends, int32(len(p.elems)))
	p.ids = append(p.ids, id)
	w := stream.WordsForElems(k) + 1
	if p.weight != nil {
		p.costs = append(p.costs, p.weight(id))
		w++
	}
	return w
}

// Pop removes the projection the last Add stored, with its ID and cost.
// The store must not be empty.
func (p *Projections) Pop() {
	last := len(p.ends) - 1
	start := 0
	if last > 0 {
		start = int(p.ends[last-1])
	}
	p.elems, p.ends, p.ids = p.elems[:start], p.ends[:last], p.ids[:last]
	if p.weight != nil {
		p.costs = p.costs[:last]
	}
}

// Elems returns the total number of stored elements.
func (p *Projections) Elems() int { return len(p.elems) }

// Solve covers mask from the stored projections with solver and returns the
// chosen stream IDs in the solver's order. Elements are numbered by their
// rank in mask. Stored elements no longer in mask are dropped (L may shrink
// after Add), and so are projections left empty.
//
// The ranks overwrite the stored elements in place, and the IDs and costs
// of the kept projections move down in place: each write index trails its
// read index. The solver's sets are capacity-clipped views into the arena
// and its weights a view into the costs, valid until the next Add or Reset.
// Solve leaves the store empty.
func (p *Projections) Solve(mask *bitset.Bitset, solver Solver) ([]int, error) {
	defer p.Reset()
	ranks := mask.Ranks()
	sub := &setcover.Instance{N: mask.Count(), Sets: make([]setcover.Set, 0, len(p.ends))}
	at, start := 0, 0
	for i, end := range p.ends {
		from := at
		for _, e := range p.elems[start:end] {
			if r, ok := ranks.Rank(int(e)); ok {
				p.elems[at] = setcover.Elem(r)
				at++
			}
		}
		start = int(end)
		if at == from {
			continue
		}
		j := len(sub.Sets)
		sub.Sets = append(sub.Sets, setcover.Set{ID: j, Elems: p.elems[from:at:at]})
		p.ids[j] = p.ids[i]
		if p.weight != nil {
			p.costs[j] = p.costs[i]
		}
	}
	if p.weight != nil {
		sub.Weights = p.costs[:len(sub.Sets):len(sub.Sets)]
	}
	cover, err := solver.Solve(sub)
	if err != nil {
		return nil, err
	}
	for i, sid := range cover {
		cover[i] = p.ids[sid]
	}
	return cover, nil
}
