package serve

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/scdisk"
	"repro/internal/scdyn"
	"repro/internal/stream"
)

// Catalog resolution/mutation errors, for HTTP status mapping.
var (
	// ErrUnknownInstance reports a name that resolves to nothing (404).
	ErrUnknownInstance = errors.New("serve: unknown instance")
	// ErrNotDynamic reports a mutation aimed at a non-dynamic instance (400).
	ErrNotDynamic = errors.New("serve: instance is not dynamic")
)

// errFileChanged reports a disk instance whose file is no longer the one
// registered (502, like a failed pass: the storage behind the service moved).
var errFileChanged = errors.New("changed since registration")

// Instance is one registered entry of a Catalog: enough metadata to list and
// address it (name, content digest, dimensions) plus the recipe for opening a
// FRESH repository view per solve — its own pass counter, so concurrent
// solves never share decode state and per-solve pass counts are exact.
type Instance struct {
	// Name is the registration name, unique within a catalog.
	Name string `json:"name"`
	// Digest is the content digest computed once at registration. For disk
	// instances it is scdisk.Repo.Digest, a hash of every byte of the file;
	// for dynamic instances it is the scdyn chain digest of the generation,
	// anchored on that same file digest. It is the instance component of the
	// result-cache key, and requests may address instances by it instead of
	// by name.
	Digest string `json:"digest"`
	// N and M are the universe size and family size.
	N int `json:"n"`
	M int `json:"m"`
	// Kind is "disk" for SCB1 files, "dynamic" for mutable instances (SCB1
	// base + scdyn delta log).
	Kind string `json:"kind"`
	// Path is the backing file.
	Path string `json:"path,omitempty"`
	// Generation is how many mutations a dynamic instance has absorbed (0 and
	// omitted for disk instances). An Instance value is PINNED: a mutation
	// does not change it but registers a successor under the same name with
	// the next generation and a new digest, so everything holding this value —
	// an in-flight job, a cache key, a router decision — keeps describing the
	// content it was resolved against.
	Generation int `json:"generation,omitempty"`
	// Weighted reports whether the instance carries per-set costs (an SCWT
	// section on disk instances); WeightMin/WeightMax are the cost extremes
	// when it does. Requests assert against these via their weights block.
	Weighted  bool    `json:"weighted,omitempty"`
	WeightMin float64 `json:"weight_min,omitempty"`
	WeightMax float64 `json:"weight_max,omitempty"`

	open func() (stream.Repository, func() error, error)
	// closePool releases pooled repository handles.
	closePool func() error
	// dyn is the shared mutable state behind a dynamic instance (nil for
	// disk instances). Every generation's Instance of one name points at the
	// same entry.
	dyn *dynEntry
}

// Open returns a fresh repository view over the instance plus a release
// function to call when the solve is done. Disk instances draw from a small
// pool of open scdisk.Repo handles — a solve checks a handle out exclusively
// (its pass counter reset, so per-solve counts stay exact) and release
// returns it for the next solve instead of closing, dropping the
// open/stat/index-parse syscall tax from every solve of a hot instance.
// Beyond poolSize concurrently checked-out handles, extra opens are
// satisfied fresh and closed on release.
func (inst *Instance) Open() (stream.Repository, func() error, error) {
	return inst.open()
}

// repoPoolSize bounds the idle open handles kept per disk instance. Handles
// beyond it (opened under a burst of concurrent solves) close on release;
// four idle handles cover a typical MaxConcurrent without pinning file
// descriptors for hundreds of registered instances.
const repoPoolSize = 4

// poolable is what a pooled repository handle must support: streaming, a
// resettable pass counter (per-solve counts stay exact on reuse), and Close.
// scdisk.Repo and scdyn.View both qualify.
type poolable interface {
	stream.Repository
	ResetPasses()
	Close() error
}

// poolEntry is one idle handle, BOUND to the content digest it was opened
// under. The binding is the staleness fix for mutable instances: a handle
// pooled before a mutation carries the old digest and can never be checked
// out for the new content — without it, the pool would happily hand a
// post-mutation solve a pre-mutation view (the exact bug the digest-on-
// mutation design exists to kill).
type poolEntry struct {
	repo   poolable
	digest string
}

// repoPool is one instance's free list of open handles. After close,
// releases close their handle instead of re-pooling it, so a drained catalog
// cannot re-accumulate descriptors from solves that were in flight.
type repoPool struct {
	mu     sync.Mutex
	free   []poolEntry
	closed bool
}

// get checks out an idle handle opened under digest, or nil when none
// matches. Handles bound to any OTHER digest are stale — their instance
// mutated since they were pooled — and are closed on sight rather than
// skipped: nothing will ever legitimately ask for them again.
func (p *repoPool) get(digest string) poolable {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.free) > 0 {
		e := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		if e.digest == digest {
			return e.repo
		}
		e.repo.Close()
	}
	return nil
}

// put returns a handle to the free list under the digest it served, closing
// it when the pool is full or closed.
func (p *repoPool) put(r poolable, digest string) error {
	p.mu.Lock()
	if !p.closed && len(p.free) < repoPoolSize {
		p.free = append(p.free, poolEntry{repo: r, digest: digest})
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()
	return r.Close()
}

// checkout returns a handle for one solve plus its release: an idle handle
// bound to digest when the pool has one, else a fresh one from open. Either
// way its pass counter starts at zero, so per-solve pass counts stay exact on
// a reused handle, and release returns it to the pool under digest. A
// non-nil check runs once the handle is out; if it fails, the handle is
// closed instead of pooled and the checkout fails with its error.
func (p *repoPool) checkout(digest string, open func() (poolable, error), check func() error) (stream.Repository, func() error, error) {
	r := p.get(digest)
	if r == nil {
		var err error
		if r, err = open(); err != nil {
			return nil, nil, err
		}
	}
	if check != nil {
		if err := check(); err != nil {
			r.Close()
			return nil, nil, err
		}
	}
	r.ResetPasses()
	return r, func() error { return p.put(r, digest) }, nil
}

// close closes every idle handle and flips the pool so future releases close
// too.
func (p *repoPool) close() error {
	p.mu.Lock()
	free := p.free
	p.free, p.closed = nil, true
	p.mu.Unlock()
	var first error
	for _, e := range free {
		if err := e.repo.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Catalog is the registry of solvable instances. Registration digests and
// validates each instance exactly once; solves then address it by name or
// digest without re-opening metadata. Safe for concurrent use. Close the
// catalog when done to release pooled file handles.
type Catalog struct {
	mu       sync.RWMutex
	byName   map[string]*Instance
	byDigest map[string]*Instance // first registration wins per digest
	order    []string             // registration order, for stable listings
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{byName: make(map[string]*Instance), byDigest: make(map[string]*Instance)}
}

// AddFile registers the SCB1 file at path (plain or indexed) under name. The
// file is opened once to validate the header and compute the content digest,
// scdisk.Repo.Digest, which reads the whole file once; that handle seeds the
// instance's pool, and every subsequent solve checks a pooled handle out (or
// opens a fresh one past the pool). Registering a truncated-but-openable file
// succeeds — SCB1 headers cannot promise the data that follows — and the
// corruption surfaces as a structured pass failure at solve time instead.
// Because the digest covers every byte, a corrupt file never shares a digest,
// and so never a cached result, with the intact file it came from.
//
// The digest describes the bytes at registration, so every checkout, pooled
// or fresh, stats path again and fails the solve when the file, its size or
// its modification time differs from the stat taken before the digest read
// it: a file rewritten or replaced since then is not solved, or cached,
// under the old digest. Cache hits check out no handle and pay nothing.
func (c *Catalog) AddFile(name, path string) (*Instance, error) {
	reg, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("serve: register %q: %w", name, err)
	}
	d, err := scdisk.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: register %q: %w", name, err)
	}
	digest, err := d.Digest()
	n, m := d.UniverseSize(), d.NumSets()
	if err != nil {
		d.Close()
		return nil, fmt.Errorf("serve: register %q: %w", name, err)
	}

	// The handle pool, seeded with the registration handle. Checkout is
	// non-blocking — an empty pool means the solve opens its own handle;
	// release returns to the pool, or closes when the pool is full or the
	// catalog has been closed.
	pool := &repoPool{}
	pool.put(d, digest)
	inst := &Instance{
		Name: name, Digest: digest, N: n, M: m, Kind: "disk", Path: path,
		open: func() (stream.Repository, func() error, error) {
			return pool.checkout(digest, func() (poolable, error) { return scdisk.Open(path) }, func() error {
				cur, err := os.Stat(path)
				if err != nil || !os.SameFile(reg, cur) || cur.Size() != reg.Size() || !cur.ModTime().Equal(reg.ModTime()) {
					return fmt.Errorf("serve: %s %w", path, errFileChanged)
				}
				return nil
			})
		},
		closePool: pool.close,
	}
	if lo, hi, ok := d.WeightRange(); ok {
		inst.Weighted, inst.WeightMin, inst.WeightMax = true, lo, hi
	}
	if err := c.add(inst); err != nil {
		inst.closePool()
		return nil, err
	}
	return inst, nil
}

// dynEntry is the shared mutable state behind one dynamic NAME: the scdyn
// repository, the pooled view handles (all generations share one pool — the
// digest binding on entries keeps generations apart), and the incremental
// solver whose state survives across mutations. Mutations serialize on mu so
// apply-log-and-swap-instance is atomic per name.
type dynEntry struct {
	mu     sync.Mutex
	repo   *scdyn.Repo
	pool   *repoPool
	solver *scdyn.Solver
}

// instanceAt builds the pinned Instance for de's generation gen. The open
// recipe checks the shared pool for a view bound to THIS generation's digest
// and otherwise pins a fresh snapshot — mutations after this point are
// invisible to it.
func (de *dynEntry) instanceAt(name, path string, gen int) (*Instance, error) {
	view, err := de.repo.ViewAt(gen)
	if err != nil {
		return nil, err
	}
	digest := view.Digest()
	inst := &Instance{
		Name: name, Digest: digest, N: view.UniverseSize(), M: view.NumSets(),
		Kind: "dynamic", Path: path, Generation: gen, dyn: de,
		open: func() (stream.Repository, func() error, error) {
			return de.pool.checkout(digest, func() (poolable, error) { return de.repo.ViewAt(gen) }, nil)
		},
		closePool: func() error {
			err := de.pool.close()
			if cerr := de.repo.Close(); err == nil {
				err = cerr
			}
			return err
		},
	}
	return inst, nil
}

// AddDynamic registers the SCB1 file at path as a MUTABLE instance under
// name: its family can grow (append set) and shrink (tombstone set) after
// registration via Mutate, with every mutation minting a new content digest
// (see internal/scdyn). An existing delta log next to the file is replayed —
// the instance registers at its persisted generation. Weighted base files
// are rejected by scdyn.Open: per-set costs for appended sets have no
// representation in the delta log yet (a named ROADMAP gap).
func (c *Catalog) AddDynamic(name, path string) (*Instance, error) {
	r, err := scdyn.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: register %q: %w", name, err)
	}
	de := &dynEntry{repo: r, pool: &repoPool{}, solver: scdyn.NewSolver(r)}
	inst, err := de.instanceAt(name, path, r.Generation())
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("serve: register %q: %w", name, err)
	}
	if err := c.add(inst); err != nil {
		inst.closePool()
		return nil, err
	}
	return inst, nil
}

// Mutate applies ops to the dynamic instance registered under name (names
// only — a digest addresses immutable content and cannot be a mutation
// target) and swaps in the successor Instance: same name, next generation,
// NEW digest. The old digest stops resolving immediately — digest-addressed
// requests for it get a 404, which is the invalidation signal the fleet
// router keys on. Instance values resolved before the mutation stay valid
// and keep streaming their own generation.
func (c *Catalog) Mutate(name string, ops []scdyn.Op) (*Instance, error) {
	c.mu.RLock()
	inst, ok := c.byName[name]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownInstance, name)
	}
	if inst.dyn == nil {
		return nil, fmt.Errorf("%w: %q is kind %q", ErrNotDynamic, name, inst.Kind)
	}
	de := inst.dyn
	de.mu.Lock()
	defer de.mu.Unlock()
	if _, err := de.repo.Apply(ops); err != nil {
		return nil, err
	}
	next, err := de.instanceAt(name, inst.Path, de.repo.Generation())
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	old := c.byName[name]
	c.byName[name] = next
	if old != nil && c.byDigest[old.Digest] == old {
		delete(c.byDigest, old.Digest)
	}
	if _, dup := c.byDigest[next.Digest]; !dup {
		c.byDigest[next.Digest] = next
	}
	c.mu.Unlock()
	return next, nil
}

func (c *Catalog) add(inst *Instance) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.byName[inst.Name]; dup {
		return fmt.Errorf("serve: instance %q already registered", inst.Name)
	}
	c.byName[inst.Name] = inst
	if _, dup := c.byDigest[inst.Digest]; !dup {
		c.byDigest[inst.Digest] = inst // first registration wins for digest addressing
	}
	c.order = append(c.order, inst.Name)
	return nil
}

// Get resolves an instance by name or by digest, both O(1) — digest
// addressing sits on the solve hot path.
func (c *Catalog) Get(nameOrDigest string) (*Instance, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if inst, ok := c.byName[nameOrDigest]; ok {
		return inst, true
	}
	inst, ok := c.byDigest[nameOrDigest]
	return inst, ok
}

// List returns the registered instances in registration order.
func (c *Catalog) List() []*Instance {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Instance, 0, len(c.order))
	for _, name := range c.order {
		out = append(out, c.byName[name])
	}
	return out
}

// Len reports the number of registered instances.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.order)
}

// Close releases every pooled repository handle. Solves in flight keep their
// checked-out handles and close them on release (a closed pool re-pools
// nothing); solving after Close still works — fresh handles open per solve —
// so Close is a shutdown courtesy, not a poison pill.
func (c *Catalog) Close() error {
	c.mu.RLock()
	insts := make([]*Instance, 0, len(c.order))
	for _, name := range c.order {
		insts = append(insts, c.byName[name])
	}
	c.mu.RUnlock()
	var first error
	for _, inst := range insts {
		if err := inst.closePool(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
