package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// Lemma 2.1's accounting, explicitly: running all log n parallel guesses
// costs exactly the same number of physical passes as running a single
// guess — guesses share scans, they do not multiply them.
func TestParallelGuessesSharePasses(t *testing.T) {
	mk := func() *stream.SliceRepo {
		in, _, _, err := gen.Planted(gen.PlantedConfig{N: 512, M: 1024, K: 8, Seed: 51})
		if err != nil {
			t.Fatal(err)
		}
		return stream.NewSliceRepo(in)
	}
	single := mk()
	resSingle, err := IterSetCover(single, Options{Delta: 0.25, Seed: 1, KMin: 8, KMax: 8})
	if err != nil {
		t.Fatal(err)
	}
	all := mk()
	resAll, err := IterSetCover(all, Options{Delta: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The full-guess run can only finish earlier (some guess covers sooner),
	// never later than the pinned run's pass budget.
	if resAll.Passes > 8 || resSingle.Passes > 8 {
		t.Fatalf("passes exceeded 2/δ: all=%d single=%d", resAll.Passes, resSingle.Passes)
	}
	// Space, by contrast, does multiply with the number of live guesses.
	if resAll.SpaceWords <= resSingle.SpaceWords {
		t.Fatalf("parallel guesses should cost more space: all=%d single=%d",
			resAll.SpaceWords, resSingle.SpaceWords)
	}
}

// Pass parity: every pass of iterSetCover drains the stream completely (the
// streaming model does not allow partial scans to be cheaper), which the
// SliceRepo cannot check — a counting wrapper can.
func TestPassesFullyDrained(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 128, M: 256, K: 4, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	base := stream.NewSliceRepo(in)
	repo := &drainCheckRepo{SliceRepo: base, m: in.M()}
	if _, err := IterSetCover(repo, Options{Delta: 0.5, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	repo.verify(t)
}

type drainCheckRepo struct {
	*stream.SliceRepo
	m       int
	readers []*drainCheckReader
}

func (r *drainCheckRepo) Begin() stream.Reader {
	dr := &drainCheckReader{Reader: r.SliceRepo.Begin()}
	r.readers = append(r.readers, dr)
	return dr
}

func (r *drainCheckRepo) verify(t *testing.T) {
	t.Helper()
	if len(r.readers) == 0 || len(r.readers) != r.Passes() {
		t.Fatalf("wrapper saw %d readers over %d counted passes, want one per pass",
			len(r.readers), r.Passes())
	}
	for i, dr := range r.readers {
		if dr.reads != r.m {
			t.Fatalf("pass %d read %d of %d sets — partial scan", i, dr.reads, r.m)
		}
	}
}

type drainCheckReader struct {
	stream.Reader
	reads int
}

func (d *drainCheckReader) NextBatch(dst []setcover.Set) int {
	n := d.Reader.NextBatch(dst)
	d.reads += n
	return n
}
