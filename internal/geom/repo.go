package geom

import (
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// Instance is a geometric SetCover input: n points (the elements, stored in
// memory per the model) and m shapes (the sets, streamed).
type Instance struct {
	Points []Point
	Shapes []Shape
}

// N returns the number of points.
func (in *Instance) N() int { return len(in.Points) }

// M returns the number of shapes.
func (in *Instance) M() int { return len(in.Shapes) }

// ToSetCover materializes the abstract set system (used for ground truth and
// validation only — the streaming algorithm never does this).
func (in *Instance) ToSetCover() *setcover.Instance {
	out := &setcover.Instance{N: len(in.Points)}
	for _, s := range in.Shapes {
		out.Sets = append(out.Sets, setcover.Set{Elems: ContainedPoints(s, in.Points, nil)})
	}
	out.Normalize()
	return out
}

// IsCover reports whether the shapes with the given stream IDs cover every
// point.
func (in *Instance) IsCover(ids []int) bool {
	covered := make([]bool, len(in.Points))
	for _, id := range ids {
		if id < 0 || id >= len(in.Shapes) {
			continue
		}
		s := in.Shapes[id]
		for i, p := range in.Points {
			if !covered[i] && s.Contains(p) {
				covered[i] = true
			}
		}
	}
	for _, c := range covered {
		if !c {
			return false
		}
	}
	return true
}

// ShapeStream is the capability AlgGeomSC needs from a shape repository: a
// pass-counted engine.Source of streamed shapes (NumItems is m, the exact
// length of one full pass) plus the model's in-memory point set. It is an
// interface (rather than the concrete ShapeRepo) so tests can wrap the
// stream with failure injectors — a flaky or truncating cursor must fail the
// solve loudly, never yield a cover of a partial stream.
type ShapeStream interface {
	engine.Source[StreamShape]
	// NumPoints returns n (the points are stored in memory per the model).
	NumPoints() int
	// Points exposes the in-memory point set.
	Points() []Point
	// Passes returns the number of passes started so far.
	Passes() int
}

// ShapeRepo is a pass-counted, read-only stream of shapes, the geometric
// analogue of stream.Repository and the standard ShapeStream implementation.
type ShapeRepo struct {
	inst   *Instance
	passes atomic.Int64

	// contained caches r∩U per shape. This is a simulator-speed cache only:
	// in the model, evaluating which stored points fall in a streamed shape
	// costs time, not algorithm memory, so no tracker words are charged.
	contained [][]int32
}

// NewShapeRepo wraps a geometric instance as a shape stream.
func NewShapeRepo(in *Instance) *ShapeRepo { return &ShapeRepo{inst: in} }

// NumPoints returns n.
func (r *ShapeRepo) NumPoints() int { return len(r.inst.Points) }

// NumItems returns m, the number of shapes one pass yields.
func (r *ShapeRepo) NumItems() int { return len(r.inst.Shapes) }

// Points exposes the in-memory point set (granted by the model).
func (r *ShapeRepo) Points() []Point { return r.inst.Points }

// Passes returns the number of passes started.
func (r *ShapeRepo) Passes() int { return int(r.passes.Load()) }

// ResetPasses zeroes the pass counter.
func (r *ShapeRepo) ResetPasses() { r.passes.Store(0) }

// Instance exposes the backing instance for verification code only.
func (r *ShapeRepo) Instance() *Instance { return r.inst }

// Precompute evaluates and caches r∩U for every shape, trading simulator
// memory for speed. Safe to call more than once.
func (r *ShapeRepo) Precompute() {
	if r.contained != nil {
		return
	}
	r.contained = make([][]int32, len(r.inst.Shapes))
	for i, s := range r.inst.Shapes {
		r.contained[i] = ContainedPoints(s, r.inst.Points, nil)
	}
}

// Contained returns the sorted global indices of points contained in shape
// id, computing them on the fly if Precompute was not called.
func (r *ShapeRepo) Contained(id int) []int32 {
	if r.contained != nil {
		return r.contained[id]
	}
	return ContainedPoints(r.inst.Shapes[id], r.inst.Points, nil)
}

// Begin starts a new pass.
func (r *ShapeRepo) Begin() stream.Cursor[StreamShape] {
	r.passes.Add(1)
	return &shapeCursor{repo: r}
}

// shapeCursor streams one pass of a ShapeRepo.
type shapeCursor struct {
	repo *ShapeRepo
	pos  int
}

// NextBatch fills dst with the next shapes, each with its stream ID and its
// contained points.
func (c *shapeCursor) NextBatch(dst []StreamShape) int {
	dst = dst[:min(cap(dst), c.repo.NumItems()-c.pos)]
	for i := range dst {
		id := c.pos + i
		dst[i] = StreamShape{ID: id, Shape: c.repo.inst.Shapes[id], Contained: c.repo.Contained(id)}
	}
	c.pos += len(dst)
	return len(dst)
}

// Err returns nil: an in-memory pass cannot fail.
func (c *shapeCursor) Err() error { return nil }
