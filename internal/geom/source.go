package geom

import "repro/internal/stream"

// source.go adapts a ShapeStream to the pass engine's generic Source
// capability, which is how the geometric algorithm's passes run on the same
// executor as every set-system algorithm: one engine.RunOver = one counted
// shape pass, batched delivery, per-guess observers sharded across workers,
// and the first-class failure contract (a reader error or a silently short
// stream poisons the pass and AlgGeomSC returns an error wrapping
// engine.ErrPassFailed instead of covering a partial stream).

// StreamShape is the element type of a geometric pass: one streamed shape
// with its stream ID and its decoded point containment. Contained is
// computed once per shape per pass in the cursor — the per-pass "decode" of
// the geometric setting (evaluating which stored points fall inside a
// streamed shape costs time, not algorithm memory, so no tracker words are
// charged) — and shared read-only by every observer.
type StreamShape struct {
	ID        int
	Shape     Shape
	Contained []int32
}

// shapeSource implements engine.Source[StreamShape] over a ShapeStream.
type shapeSource struct {
	repo ShapeStream
}

// NumItems returns the exact pass length; the engine uses it to detect
// silently truncated shape streams.
func (s shapeSource) NumItems() int { return s.repo.NumShapes() }

// Begin starts one counted pass (delegating the counting to the repository).
func (s shapeSource) Begin() stream.Cursor[StreamShape] {
	return &shapeCursor{repo: s.repo, it: s.repo.Begin()}
}

// shapeCursor drives one ShapeReader pass, decoding containment per shape.
type shapeCursor struct {
	repo ShapeStream
	it   ShapeReader
}

func (c *shapeCursor) Next() (StreamShape, bool) {
	sh, id, ok := c.it.Next()
	if !ok {
		return StreamShape{}, false
	}
	return StreamShape{ID: id, Shape: sh, Contained: c.repo.Contained(id)}, true
}

// Err forwards the reader's optional mid-pass failure surface to the engine:
// a ShapeReader that implements stream.ErrorReader fails the pass loudly
// through the cursor, exactly like a set reader would.
func (c *shapeCursor) Err() error { return stream.ReaderErr(c.it) }
