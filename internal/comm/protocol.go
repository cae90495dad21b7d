package comm

import (
	"repro/internal/setcover"
	"repro/internal/stream"
)

// This file makes Observation 5.9 executable: a streaming algorithm runs
// unchanged over a repository whose sets are partitioned among q players in
// stream order; every time a scan crosses a player boundary, the working
// memory would be handed to the next player. The simulation counts those
// hand-offs, so the induced protocol's cost is
//
//	bits = crossings × spaceWords × 64,
//
// matching the Observation's O(s·ℓ²) accounting (ℓ passes × (q-1) hand-offs
// per pass, with q ≤ ℓ players in the reduction).

// ProtocolRepo wraps a Repository and counts player-boundary crossings.
// It implements stream.Repository, and stream.Weighted by delegating to the
// wrapped repository, so any streaming algorithm in this repository runs
// over it unmodified and solves the same weighted or unweighted problem.
type ProtocolRepo struct {
	inner   stream.Repository
	players int
	// boundaries[i] is the first set index owned by player i+1.
	boundaries []int
	crossings  int
}

// NewProtocolRepo partitions the repository's stream order among the given
// number of players (as equally as possible, player 0 first).
func NewProtocolRepo(inner stream.Repository, players int) *ProtocolRepo {
	if players < 1 {
		players = 1
	}
	m := inner.NumSets()
	p := &ProtocolRepo{inner: inner, players: players}
	for i := 1; i < players; i++ {
		p.boundaries = append(p.boundaries, i*m/players)
	}
	return p
}

// UniverseSize implements stream.Repository.
func (p *ProtocolRepo) UniverseSize() int { return p.inner.UniverseSize() }

// NumSets implements stream.Repository.
func (p *ProtocolRepo) NumSets() int { return p.inner.NumSets() }

// Passes implements stream.Repository.
func (p *ProtocolRepo) Passes() int { return p.inner.Passes() }

// HasWeights implements stream.Weighted: whether the wrapped repository
// carries a per-set cost vector.
func (p *ProtocolRepo) HasWeights() bool { return stream.HasWeights(p.inner) }

// Weight implements stream.Weighted: the wrapped repository's cost of set id.
func (p *ProtocolRepo) Weight(id int) float64 { return stream.WeightOf(p.inner, id) }

// Crossings returns the number of player-boundary hand-offs so far. Each
// pass over m sets split among q players costs q-1 hand-offs, plus one at
// end-of-pass to return the state to the answering player.
func (p *ProtocolRepo) Crossings() int { return p.crossings }

// Begin implements stream.Repository. The returned reader carries the full
// engine contract through the simulation: batches (crossings are accounted
// per batch span), stream.Recycler forwarding (a disk-backed inner pass keeps
// reusing its batch arenas), and the inner reader's failure report — so a
// protocol-wrapped pass driven by engine.Run behaves exactly like the
// unwrapped one, plus the hand-off accounting.
//
// ProtocolRepo deliberately does NOT implement stream.SegmentedRepository:
// hand-offs are defined by the sequential stream order crossing player
// boundaries, so the engine's single-reader path is the faithful simulation
// at every worker count.
func (p *ProtocolRepo) Begin() stream.Reader {
	return &protocolReader{repo: p, inner: p.inner.Begin()}
}

type protocolReader struct {
	repo     *ProtocolRepo
	inner    stream.Reader
	pos      int
	boundary int // next boundary index to cross
	done     bool
}

// crossTo counts every player boundary passed when the scan position
// advances to newPos, or the end-of-pass hand-off back to the lead player
// when the stream is exhausted (newPos < 0).
func (r *protocolReader) crossTo(newPos int) {
	if newPos < 0 {
		if !r.done {
			r.done = true
			r.repo.crossings++
		}
		return
	}
	for r.boundary < len(r.repo.boundaries) && r.repo.boundaries[r.boundary] < newPos {
		r.repo.crossings++
		r.boundary++
	}
	r.pos = newPos
}

// NextBatch implements stream.Reader: the inner reader's batch advances the
// scan by len(batch) positions, and every boundary inside that span costs
// one hand-off, so the count does not depend on the batch size.
func (r *protocolReader) NextBatch(dst []setcover.Set) int {
	n := r.inner.NextBatch(dst)
	if n == 0 {
		r.crossTo(-1)
		return 0
	}
	r.crossTo(r.pos + n)
	return n
}

// Recycle implements stream.Recycler by forwarding to the inner reader when
// it recycles: the simulation must not break the pooled decode path of a
// disk-backed repository.
func (r *protocolReader) Recycle(sets []setcover.Set) {
	if rec, ok := r.inner.(stream.Recycler); ok {
		rec.Recycle(sets)
	}
}

// Err forwards the wrapped reader's mid-pass failure: a truncated repository
// must fail loudly through the simulation wrapper too, not read as a short
// healthy pass.
func (r *protocolReader) Err() error { return r.inner.Err() }

// ProtocolCost converts a finished simulation into communication bits:
// every hand-off ships the algorithm's peak working memory once.
func ProtocolCost(crossings int, spaceWords int64) int64 {
	return int64(crossings) * spaceWords * 64
}
