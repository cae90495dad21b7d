package geom

import (
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/stream"
)

// errShapeBoom is the sentinel failure the flaky shape readers inject.
var errShapeBoom = errors.New("injected shape stream failure")

// flakyShapeRepo wraps a ShapeStream and fails pass number failOnPass (1-
// based) after failAfter shapes, cutting the batch that crosses that offset.
// With silent set, the pass just ends early with no reported error — the
// truncation a corrupt geometric instance would present if its cursor had no
// failure report; otherwise the cursor's Err reports errShapeBoom. Passes
// before failOnPass run clean, so failures can be injected into any of the
// algorithm's pass kinds (heavy, canonical, replace, final patch).
type flakyShapeRepo struct {
	ShapeStream
	failOnPass int
	failAfter  int
	silent     bool
	begins     int
	fired      bool
}

func (r *flakyShapeRepo) Begin() stream.Cursor[StreamShape] {
	r.begins++
	inner := r.ShapeStream.Begin()
	if r.begins != r.failOnPass {
		return inner
	}
	return &flakyShapeReader{repo: r, inner: inner, left: r.failAfter}
}

type flakyShapeReader struct {
	repo  *flakyShapeRepo
	inner stream.Cursor[StreamShape]
	left  int // shapes still to pass through; -1 once the pass is cut
	err   error
}

func (it *flakyShapeReader) NextBatch(dst []StreamShape) int {
	if it.left < 0 {
		return 0
	}
	n := it.inner.NextBatch(dst)
	if n <= it.left {
		it.left -= n
		return n
	}
	// Only a stream that still had shapes is truncated: fire only when a
	// shape is actually dropped (a fail offset at or past m is a clean pass,
	// not a failure).
	n, it.left = it.left, -1
	it.repo.fired = true
	if !it.repo.silent {
		it.err = errShapeBoom
	}
	return n
}

// Err reports the injected failure. A silent reader never reports — the
// engine's full-drain check is what has to catch it.
func (it *flakyShapeReader) Err() error { return it.err }

// A shape stream that fails mid-pass — loudly or silently, in any of the
// four pass kinds — must abort AlgGeomSC with an error wrapping
// engine.ErrPassFailed and never a valid-looking cover.
func TestFlakyShapeStreamFailsAlgGeomSC(t *testing.T) {
	in, _, err := PlantedDisks(200, 400, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := NewShapeRepo(in)
	base.Precompute()
	// Sanity: the clean run succeeds (pass structure below depends on it).
	clean, err := AlgGeomSC(base, GeomOptions{Delta: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Passes < 4 {
		t.Fatalf("clean run made %d passes; the sweep below wants at least 4", clean.Passes)
	}

	for _, silent := range []bool{false, true} {
		// Sweep the failure across every pass the clean run made: pass 1 is
		// the heavy-shapes scan, 2 the canonical representation, 3 the
		// piece replacement, and the last one the final patch.
		for failOnPass := 1; failOnPass <= clean.Passes; failOnPass++ {
			repo := NewShapeRepo(in)
			repo.Precompute()
			flaky := &flakyShapeRepo{ShapeStream: repo, failOnPass: failOnPass, failAfter: 37, silent: silent}
			res, err := AlgGeomSC(flaky, GeomOptions{Delta: 0.25, Seed: 1})
			if !flaky.fired {
				t.Fatalf("silent=%v failOnPass=%d: injector never fired (begins=%d)", silent, failOnPass, flaky.begins)
			}
			if !errors.Is(err, engine.ErrPassFailed) {
				t.Fatalf("silent=%v failOnPass=%d: err = %v, want ErrPassFailed", silent, failOnPass, err)
			}
			if !silent && !errors.Is(err, errShapeBoom) {
				t.Fatalf("failOnPass=%d: err = %v does not carry the injected cause", failOnPass, err)
			}
			if res.Valid || len(res.Cover) != 0 {
				t.Fatalf("silent=%v failOnPass=%d: failed run still reported a cover (size %d, valid=%v)",
					silent, failOnPass, len(res.Cover), res.Valid)
			}
			if res.Passes != failOnPass {
				t.Fatalf("silent=%v failOnPass=%d: failed run charged %d passes", silent, failOnPass, res.Passes)
			}
		}
	}
}

// A truncated shape stream failing at shape 0 — before anything is read —
// must also fail cleanly, and the failure must surface through the public
// ShapeStream entry point at every worker count.
func TestTruncatedShapeStreamAtEveryWorkerCount(t *testing.T) {
	in, _, err := PlantedDisks(120, 240, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		repo := NewShapeRepo(in)
		repo.Precompute()
		flaky := &flakyShapeRepo{ShapeStream: repo, failOnPass: 1, failAfter: 0, silent: true}
		_, err := AlgGeomSC(flaky, GeomOptions{Delta: 0.25, Seed: 2,
			Engine: engine.Options{Workers: workers}})
		if !errors.Is(err, engine.ErrPassFailed) {
			t.Fatalf("workers=%d: err = %v, want ErrPassFailed", workers, err)
		}
	}
}
