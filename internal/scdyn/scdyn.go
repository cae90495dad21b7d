// Package scdyn makes a set-cover instance MUTABLE without giving up the
// content-addressed identity the serving and fleet layers are built on
// (DESIGN.md §11). A dynamic instance is an ordinary SCB1 base file plus an
// additive delta log (sibling file, suffix ".scdl"): append-a-set and
// tombstone-a-set records, each carrying the post-mutation content digest of
// the whole family.
//
// Two properties carry the design:
//
//   - Digest-bound mutation. The log is a hash chain: the header names the
//     base file's digest, and record i's digest is
//     H(domain-sep ‖ digest(i-1) ‖ record-bytes). Every mutation therefore
//     mints a NEW instance identity — a mutated family can never alias a
//     cache entry, a routing decision, or a pooled handle keyed by the
//     pre-mutation digest — and a log pasted next to the wrong base (or
//     bit-flipped anywhere) fails to open instead of silently streaming a
//     chimera.
//
//   - Snapshot views. The log is append-only, so "the family at generation
//     g" never changes once generation g exists. ViewAt(g) returns a
//     read-only stream.Repository pinned there: a solve that checked out a
//     view before a mutation finishes against pre-mutation content, which is
//     what keeps in-flight solves, result caches, and single-flight
//     coalescing honest while mutations land underneath them.
//
// Stream semantics of a view: base sets keep their IDs and order; a
// tombstoned set still occupies its stream position but yields no elements;
// appended sets follow the base with IDs baseM, baseM+1, ... in append order.
// IDs are never reused, so a cover computed at one generation names the same
// sets at every later generation.
//
// The log decoder is a trust boundary with the same posture as the SCB1 and
// SCWT parsers: bounded varints, capped preallocation, and a fuzz test
// (FuzzDeltaLog) that holds the no-panic/no-OOM line.
//
// The dyn solver (Solve, Solver) keeps an in-memory mirror of the family and
// its greedy trace. After a mutation it truncates the trace to the prefix no
// record can disturb and resumes offline.GreedyPicks, the repository's one
// exact-greedy kernel, from there.
package scdyn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/scdisk"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// LogSuffix is appended to the base file's path to name its delta log.
const LogSuffix = ".scdl"

// Log layout (SCDL1). All integers are unsigned varints:
//
//	magic "SCDL" (4 bytes), version (1 byte, = 1)
//	len(baseDigest), baseDigest bytes
//	per record:
//	  kind (1 byte): 1 = append, 2 = tombstone
//	  append:    the set in SCB1 per-set encoding (count, delta-coded elems)
//	  tombstone: the target set id
//	  len(digest), digest bytes — the chain value AFTER this record
var logMagic = [4]byte{'S', 'C', 'D', 'L'}

const logVersion = 1

// Record kinds.
const (
	kindAppend    byte = 1
	kindTombstone byte = 2
)

// maxDigestLen bounds the digest strings a log may carry (sha256 hex is 64;
// the slack tolerates future schemes without letting a length field demand
// real memory).
const maxDigestLen = 128

// Rec is one applied mutation, as exposed to incremental solvers
// (Repo.Records). Elems is shared read-only with the repository — do not
// mutate.
type Rec struct {
	// Kind is OpAppend or OpTombstone.
	Kind OpKind
	// ID is the appended set's id (Kind==OpAppend) or the tombstoned set's
	// id (Kind==OpTombstone).
	ID int
	// Elems are the appended set's elements (nil for tombstones).
	Elems []setcover.Elem
}

// OpKind discriminates mutation operations.
type OpKind byte

const (
	// OpAppend adds a set at the end of the stream.
	OpAppend OpKind = OpKind(kindAppend)
	// OpTombstone empties an existing set in place.
	OpTombstone OpKind = OpKind(kindTombstone)
)

// String returns the wire spelling serve uses ("append", "tombstone").
func (k OpKind) String() string {
	switch k {
	case OpAppend:
		return "append"
	case OpTombstone:
		return "tombstone"
	}
	return fmt.Sprintf("opkind(%d)", byte(k))
}

// Op is one requested mutation for Apply.
type Op struct {
	Kind  OpKind
	Elems []setcover.Elem // OpAppend: sorted-unique elements in [0, n)
	ID    int             // OpTombstone: target set id
}

// Repo is a mutable repository: an open SCB1 base plus the decoded delta
// log. Sets may be appended (new IDs at the end of the stream) and
// tombstoned (the set keeps its ID but streams empty from then on); reads go
// through generation-pinned views (View, ViewAt). Safe for concurrent use —
// mutations serialize on an internal mutex and never invalidate existing
// views, which is what lets a solve that started before a mutation finish
// against pre-mutation content.
//
// The identity contract is the load-bearing part: every successful mutation
// produces a NEW content digest (a hash chain over the base digest and every
// delta record), so a mutated family can never alias a cache entry, a
// routing decision, or a pooled handle that was keyed by the pre-mutation
// digest. Generation counts applied mutations; (Generation, ContentDigest)
// advance together and a given generation's digest never changes once
// minted.
type Repo struct {
	mu sync.Mutex

	base       *scdisk.Repo
	logPath    string
	logFile    *os.File // append handle, opened lazily on first mutation
	n, baseM   int
	baseDigest string

	recs    []record
	digests []string // digests[i] = content digest after record i
	closed  bool
}

// record is one applied log record in memory.
type record struct {
	kind  byte
	id    int             // append: the new set's id; tombstone: the target
	elems []setcover.Elem // append only
}

// Open opens the SCB1 file at path as a mutable repository. The chain is
// anchored on the base file's content digest (scdisk.Repo.Digest). The delta
// log lives at path+LogSuffix: absent means generation 0; present, it is
// decoded and its digest chain verified against the base before Open returns —
// truncation, corruption, or a log bound to a different base all fail loudly
// here rather than mid-pass. A base that carries SCWT weights is refused: the
// delta log has no weight representation, so a view could only stream it as
// unweighted.
func Open(path string) (*Repo, error) {
	base, err := scdisk.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scdyn: open base: %w", err)
	}
	if base.HasWeights() {
		base.Close()
		return nil, errors.New("scdyn: weighted base: the delta log has no weight representation")
	}
	baseDigest, err := base.Digest()
	if err != nil {
		base.Close()
		return nil, fmt.Errorf("scdyn: base digest: %w", err)
	}
	r := &Repo{
		base:       base,
		logPath:    path + LogSuffix,
		n:          base.UniverseSize(),
		baseM:      base.NumSets(),
		baseDigest: baseDigest,
	}
	data, err := os.ReadFile(r.logPath)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// No log yet: generation 0, pure base.
	case err != nil:
		base.Close()
		return nil, fmt.Errorf("scdyn: read delta log: %w", err)
	default:
		recs, digests, derr := decodeLog(data, r.n, r.baseM, baseDigest)
		if derr != nil {
			base.Close()
			return nil, fmt.Errorf("scdyn: delta log %s: %w", r.logPath, derr)
		}
		r.recs, r.digests = recs, digests
	}
	return r, nil
}

// Close closes the base file and the log append handle. Views created
// earlier must not be used afterwards.
func (r *Repo) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	var first error
	if r.logFile != nil {
		if err := r.logFile.Close(); err != nil {
			first = err
		}
		r.logFile = nil
	}
	if err := r.base.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// UniverseSize returns n.
func (r *Repo) UniverseSize() int { return r.n }

// NumSets returns m at the CURRENT generation (base sets plus appends;
// tombstoned sets still count — they hold their stream positions).
func (r *Repo) NumSets() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.numSetsLocked(len(r.recs))
}

func (r *Repo) numSetsLocked(gen int) int {
	m := r.baseM
	for _, rec := range r.recs[:gen] {
		if rec.kind == kindAppend {
			m++
		}
	}
	return m
}

// Generation returns how many mutations have been applied.
func (r *Repo) Generation() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.recs)
}

// BaseDigest returns the digest of the base file — the chain anchor and the
// generation-0 content digest.
func (r *Repo) BaseDigest() string { return r.baseDigest }

// ContentDigest returns the digest identifying the current family.
func (r *Repo) ContentDigest() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.digestLocked(len(r.recs))
}

// DigestAt returns the content digest at an earlier generation.
func (r *Repo) DigestAt(gen int) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if gen < 0 || gen > len(r.recs) {
		return "", fmt.Errorf("scdyn: generation %d out of [0, %d]", gen, len(r.recs))
	}
	return r.digestLocked(gen), nil
}

func (r *Repo) digestLocked(gen int) string {
	if gen == 0 {
		return r.baseDigest
	}
	return r.digests[gen-1]
}

// Records returns the mutations applied in generations (from, to] — the
// feed an incremental solver replays to catch its state up. The returned
// slice and element data are shared read-only with the repository.
func (r *Repo) Records(from, to int) ([]Rec, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if from < 0 || to > len(r.recs) || from > to {
		return nil, fmt.Errorf("scdyn: record range (%d, %d] out of [0, %d]", from, to, len(r.recs))
	}
	out := make([]Rec, 0, to-from)
	for _, rec := range r.recs[from:to] {
		out = append(out, Rec{Kind: OpKind(rec.kind), ID: rec.id, Elems: rec.elems})
	}
	return out, nil
}

// AppendSet adds a set with the given sorted-unique elements in [0, n) and
// returns its new ID (always the current NumSets) and the post-mutation
// content digest: one-record Apply.
func (r *Repo) AppendSet(elems []setcover.Elem) (id int, digest string, err error) {
	digest, err = r.Apply([]Op{{Kind: OpAppend, Elems: elems}})
	if err != nil {
		return 0, "", err
	}
	return r.NumSets() - 1, digest, nil
}

// Tombstone empties the set with the given ID (it keeps its stream
// position) and returns the post-mutation content digest: one-record Apply.
// Tombstoning an unknown or already-tombstoned ID is an error.
func (r *Repo) Tombstone(id int) (digest string, err error) {
	return r.Apply([]Op{{Kind: OpTombstone, ID: id}})
}

// Apply validates the whole batch against the projected post-batch state,
// then appends every record to the log and the in-memory state — all
// records or none reach memory (an I/O failure mid-write can still leave a
// truncated log on disk, which the next Open rejects loudly). Returns the
// post-batch content digest.
func (r *Repo) Apply(ops []Op) (string, error) {
	if len(ops) == 0 {
		return "", errors.New("scdyn: empty mutation batch")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return "", errors.New("scdyn: repository closed")
	}

	// Validate the batch against the projected state: appends grow m as the
	// batch proceeds, tombstones must hit a live set (base or appended,
	// including ones appended earlier in this same batch).
	projM := r.numSetsLocked(len(r.recs))
	projTomb := make(map[int]bool)
	for _, rec := range r.recs {
		if rec.kind == kindTombstone {
			projTomb[rec.id] = true
		}
	}
	newRecs := make([]record, 0, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case OpAppend:
			if projM >= setcover.MaxBinaryDim {
				return "", fmt.Errorf("scdyn: op %d: family is full (m = %d)", i, projM)
			}
			if err := validateElems(op.Elems, r.n); err != nil {
				return "", fmt.Errorf("scdyn: op %d: %w", i, err)
			}
			elems := append([]setcover.Elem(nil), op.Elems...)
			newRecs = append(newRecs, record{kind: kindAppend, id: projM, elems: elems})
			projM++
		case OpTombstone:
			if op.ID < 0 || op.ID >= projM {
				return "", fmt.Errorf("scdyn: op %d: tombstone id %d out of [0, %d)", i, op.ID, projM)
			}
			if projTomb[op.ID] {
				return "", fmt.Errorf("scdyn: op %d: set %d is already tombstoned", i, op.ID)
			}
			newRecs = append(newRecs, record{kind: kindTombstone, id: op.ID})
			projTomb[op.ID] = true
		default:
			return "", fmt.Errorf("scdyn: op %d: unknown kind %d", i, byte(op.Kind))
		}
	}

	// Encode the batch: record bytes, then the chain digest after each.
	var buf []byte
	prev := r.digestLocked(len(r.recs))
	newDigests := make([]string, 0, len(newRecs))
	for _, rec := range newRecs {
		recBytes := encodeRecord(nil, rec)
		prev = chainDigest(prev, recBytes)
		newDigests = append(newDigests, prev)
		buf = append(buf, recBytes...)
		buf = binary.AppendUvarint(buf, uint64(len(prev)))
		buf = append(buf, prev...)
	}

	if err := r.writeLogLocked(buf); err != nil {
		return "", err
	}
	r.recs = append(r.recs, newRecs...)
	r.digests = append(r.digests, newDigests...)
	return prev, nil
}

// writeLogLocked appends buf to the delta log, creating it (with its header)
// on the first mutation. Requires r.mu held.
func (r *Repo) writeLogLocked(buf []byte) error {
	if r.logFile == nil {
		_, statErr := os.Stat(r.logPath)
		fresh := errors.Is(statErr, os.ErrNotExist)
		f, err := os.OpenFile(r.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("scdyn: open delta log for append: %w", err)
		}
		if fresh {
			var hdr []byte
			hdr = append(hdr, logMagic[:]...)
			hdr = append(hdr, logVersion)
			hdr = binary.AppendUvarint(hdr, uint64(len(r.baseDigest)))
			hdr = append(hdr, r.baseDigest...)
			if _, err := f.Write(hdr); err != nil {
				f.Close()
				return fmt.Errorf("scdyn: write delta log header: %w", err)
			}
		}
		r.logFile = f
	}
	if _, err := r.logFile.Write(buf); err != nil {
		return fmt.Errorf("scdyn: write delta log: %w", err)
	}
	return nil
}

// validateElems enforces the SCB1 per-set contract: sorted strictly
// increasing elements in [0, n).
func validateElems(elems []setcover.Elem, n int) error {
	prev := int64(-1)
	for _, e := range elems {
		if int64(e) <= prev {
			return fmt.Errorf("elements not sorted-unique at %d", e)
		}
		if e < 0 || int(e) >= n {
			return fmt.Errorf("element %d out of [0, %d)", e, n)
		}
		prev = int64(e)
	}
	return nil
}

// encodeRecord appends one record's bytes (WITHOUT the trailing digest) —
// the exact bytes the digest chain hashes.
func encodeRecord(dst []byte, rec record) []byte {
	dst = append(dst, rec.kind)
	switch rec.kind {
	case kindAppend:
		dst = setcover.AppendSetBinary(dst, rec.elems)
	case kindTombstone:
		dst = binary.AppendUvarint(dst, uint64(rec.id))
	}
	return dst
}

// chainDigest is one link of the digest chain: the post-record content
// digest, as a function of the pre-record digest and the record bytes.
func chainDigest(prev string, recBytes []byte) string {
	h := sha256.New()
	io.WriteString(h, "scdyn-delta-v1\x00")
	io.WriteString(h, prev)
	h.Write([]byte{0})
	h.Write(recBytes)
	return hex.EncodeToString(h.Sum(nil))
}

// decodeLog parses and verifies a whole delta log image against the base it
// claims to extend. It is the package's trust boundary: every length is
// bounded, preallocation is capped, and the digest chain is recomputed
// record by record — any divergence (wrong base, bit flip, truncation,
// trailing garbage) is an error, never a partial success.
func decodeLog(data []byte, n, baseM int, baseDigest string) ([]record, []string, error) {
	br := bytes.NewReader(data)
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, nil, fmt.Errorf("header: %w", io.ErrUnexpectedEOF)
	}
	if !bytes.Equal(magic[:4], logMagic[:]) {
		return nil, nil, errors.New("bad magic")
	}
	if magic[4] != logVersion {
		return nil, nil, fmt.Errorf("unsupported version %d", magic[4])
	}
	gotBase, err := readDigest(br)
	if err != nil {
		return nil, nil, fmt.Errorf("header: %w", err)
	}
	if gotBase != baseDigest {
		return nil, nil, fmt.Errorf("log is bound to base digest %.12s…, this base is %.12s…; move the log aside and re-apply its mutations", gotBase, baseDigest)
	}

	var recs []record
	var digests []string
	prev := baseDigest
	m := baseM
	tomb := make(map[int]bool)
	pos := func() int64 { return int64(len(data)) - int64(br.Len()) }
	for br.Len() > 0 {
		recStart := pos()
		kind, _ := br.ReadByte()
		rec := record{kind: kind}
		switch kind {
		case kindAppend:
			if m >= setcover.MaxBinaryDim {
				return nil, nil, fmt.Errorf("record %d: family overflows", len(recs))
			}
			elems, k, err := setcover.DecodeSetBytes(data[pos():], n, nil)
			if err != nil {
				return nil, nil, fmt.Errorf("record %d: %w", len(recs), err)
			}
			_, _ = br.Seek(int64(k), io.SeekCurrent) // cannot fail: the set's k bytes are in br
			rec.id, rec.elems = m, elems
			m++
		case kindTombstone:
			id, err := boundedUvarint(br, uint64(m))
			if err != nil {
				return nil, nil, fmt.Errorf("record %d: tombstone id: %w", len(recs), err)
			}
			if int(id) >= m || tomb[int(id)] {
				return nil, nil, fmt.Errorf("record %d: tombstone id %d invalid (m=%d)", len(recs), id, m)
			}
			rec.id = int(id)
			tomb[rec.id] = true
		default:
			return nil, nil, fmt.Errorf("record %d: unknown kind %d", len(recs), kind)
		}
		// Recompute the chain over the exact record bytes just consumed and
		// compare with the stored digest: the log must agree with the base it
		// sits next to, byte for byte.
		recBytes := data[recStart:pos()]
		want := chainDigest(prev, recBytes)
		got, err := readDigest(br)
		if err != nil {
			return nil, nil, fmt.Errorf("record %d: %w", len(recs), err)
		}
		if got != want {
			return nil, nil, fmt.Errorf("record %d: digest chain mismatch (log corrupt or bound to a different history)", len(recs))
		}
		prev = want
		recs = append(recs, rec)
		digests = append(digests, want)
	}
	return recs, digests, nil
}

// readDigest reads one bounded length-prefixed digest string.
func readDigest(br *bytes.Reader) (string, error) {
	l, err := boundedUvarint(br, maxDigestLen)
	if err != nil {
		return "", fmt.Errorf("digest length: %w", err)
	}
	buf := make([]byte, l)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", fmt.Errorf("digest: %w", io.ErrUnexpectedEOF)
	}
	return string(buf), nil
}

// boundedUvarint reads a varint and rejects values above limit.
func boundedUvarint(br io.ByteReader, limit uint64) (uint64, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	if v > limit {
		return 0, fmt.Errorf("value %d exceeds limit %d", v, limit)
	}
	return v, nil
}

// Compile-time capability assertion.
var _ stream.Repository = (*View)(nil)
