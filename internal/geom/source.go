package geom

// A ShapeStream is the pass engine's generic Source over StreamShape, which
// is how the geometric algorithm's passes run on the same executor as every
// set-system algorithm: one engine.RunOver = one counted shape pass, batched
// delivery, per-guess observers sharded across workers, and the first-class
// failure contract (a cursor error or a silently short stream poisons the
// pass and AlgGeomSC returns an error wrapping engine.ErrPassFailed instead
// of covering a partial stream).

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
