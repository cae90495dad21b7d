package scdyn

import (
	"cmp"
	"fmt"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// View is a read-only snapshot of the family at one generation. It
// implements stream.Repository with its own pass counter, so the serving
// layer can pool and reuse it like any other backend; Close is a no-op (the
// underlying base file belongs to the Repo). A view stays valid — and keeps
// streaming exactly its generation's content — across any number of later
// mutations, because the delta log is append-only.
type View struct {
	r      *Repo
	gen    int
	m      int
	digest string
	tomb   map[int]bool      // ids tombstoned by generation gen (nil if none)
	app    [][]setcover.Elem // appended sets' elements, index = id - baseM
	passes atomic.Int64
}

// View returns a snapshot pinned at the current generation.
func (r *Repo) View() *View {
	r.mu.Lock()
	gen := len(r.recs)
	r.mu.Unlock()
	v, err := r.ViewAt(gen)
	if err != nil {
		// Generations never shrink, so the current one always exists.
		panic(err)
	}
	return v
}

// ViewAt returns a snapshot pinned at an earlier generation.
func (r *Repo) ViewAt(gen int) (*View, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if gen < 0 || gen > len(r.recs) {
		return nil, fmt.Errorf("scdyn: generation %d out of [0, %d]", gen, len(r.recs))
	}
	v := &View{r: r, gen: gen, m: r.baseM, digest: r.digestLocked(gen)}
	for _, rec := range r.recs[:gen] {
		switch rec.kind {
		case kindAppend:
			v.app = append(v.app, rec.elems)
			v.m++
		case kindTombstone:
			if v.tomb == nil {
				v.tomb = make(map[int]bool)
			}
			v.tomb[rec.id] = true
		}
	}
	return v, nil
}

// UniverseSize returns n.
func (v *View) UniverseSize() int { return v.r.n }

// NumSets returns m at this view's generation (tombstoned sets included —
// they hold their stream positions).
func (v *View) NumSets() int { return v.m }

// Generation returns the generation this view is pinned to.
func (v *View) Generation() int { return v.gen }

// Digest returns the content digest of this view's generation.
func (v *View) Digest() string { return v.digest }

// Passes returns the number of passes started on this view.
func (v *View) Passes() int { return int(v.passes.Load()) }

// ResetPasses zeroes the pass counter, mirroring scdisk.Repo so pooled
// handles start every checkout with a clean budget.
func (v *View) ResetPasses() { v.passes.Store(0) }

// Close is a no-op: the base file is owned by the Repo. It exists so a view
// satisfies the same pooled-handle shape as scdisk.Repo.
func (v *View) Close() error { return nil }

// Begin starts a pass: the base family in file order (tombstoned sets
// streaming empty), then the appended sets.
func (v *View) Begin() stream.Reader {
	v.passes.Add(1)
	var base stream.Reader
	if v.r.baseM > 0 {
		base = v.r.base.Begin()
	}
	return &viewReader{v: v, base: base}
}

// Materialize drains one pass into an in-memory instance — the bridge to
// in-memory solvers and tests. Tombstoned sets come back as empty (non-nil)
// slices so indices keep lining up with IDs.
func (v *View) Materialize() (*setcover.Instance, error) {
	sets := make([]setcover.Set, v.m)
	err := engine.New(engine.Options{Workers: 1}).Run(v, engine.Func(func(batch []setcover.Set) {
		for _, s := range batch {
			sets[s.ID] = setcover.Set{ID: s.ID, Elems: append([]setcover.Elem{}, s.Elems...)}
		}
	}))
	if err != nil {
		return nil, err
	}
	return &setcover.Instance{N: v.UniverseSize(), Sets: sets}, nil
}

// viewReader streams one pass of a view. Base sets are the base reader's
// batches, decoded into scdisk's recycled arenas, with tombstoned sets
// emptied; appended sets share the repo's read-only record storage. Either
// way the engine-side no-retention discipline is what protects them.
type viewReader struct {
	v    *View
	base stream.Reader // nil when the base family is empty
	pos  int
	err  error
}

// NextBatch implements stream.Reader: one base batch while the base lasts,
// then the appended sets. A base that ends short of its m sets fails the
// pass.
func (it *viewReader) NextBatch(dst []setcover.Set) int {
	v, dst := it.v, dst[:cap(dst)]
	if it.err != nil {
		return 0
	}
	if it.pos < v.r.baseM {
		n := it.base.NextBatch(dst)
		if n == 0 {
			it.err = cmp.Or(it.base.Err(), fmt.Errorf("scdyn: base stream ended at set %d of %d", it.pos, v.r.baseM))
			return 0
		}
		if v.tomb != nil {
			for i := range dst[:n] {
				if v.tomb[dst[i].ID] {
					dst[i].Elems = nil
				}
			}
		}
		it.pos += n
		return n
	}
	n := 0
	for ; n < len(dst) && it.pos < v.m; n++ {
		dst[n] = setcover.Set{ID: it.pos}
		if !v.tomb[it.pos] {
			dst[n].Elems = v.app[it.pos-v.r.baseM]
		}
		it.pos++
	}
	return n
}

// Recycle implements stream.Recycler by handing the batch on to the base
// reader. Base batches come first, one per view batch, so when the k-th call
// arrives the base's first k batches are done and its oldest arena is free,
// as stream.RecyclerOf's ordering rule requires. Calls after the base is
// drained find no arena held and do nothing.
func (it *viewReader) Recycle(sets []setcover.Set) {
	if rec, ok := it.base.(stream.Recycler); ok {
		rec.Recycle(sets)
	}
}

// Err implements stream.Reader: a base-file decode failure or a short base
// stream ends the pass early and must fail the solve, never pass as a
// complete scan.
func (it *viewReader) Err() error { return it.err }
