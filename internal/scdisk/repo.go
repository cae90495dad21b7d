package scdisk

import (
	"bufio"
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/setcover"
	"repro/internal/stream"
)

// readerBufSize caps the first decode window of a sequential pass on the
// positional-read path: large enough that a scan issues few ReadAt calls,
// small enough that concurrent passes stay cheap.
const readerBufSize = 256 << 10

// segBufSize caps the first decode window of one segmented-pass chunk reader:
// chunks are a few hundred sets (~tens of KB), so a smaller window than a
// full sequential pass gets, pooled and reused across chunks.
const segBufSize = 64 << 10

// maxPooledElems caps the recycle pool so a burst of passes cannot pin
// unbounded decode buffers.
const maxPooledElems = 4096

// maxPooledElemCap caps the CAPACITY of an individual recycled buffer: one
// pathologically large set must not pin a huge decode buffer in the pool for
// the repository's lifetime. Oversized buffers are dropped on put and
// reclaimed by the GC; 64Ki elements (256 KB) comfortably covers ordinary
// sets while bounding pool memory at maxPooledElems·maxPooledElemCap·4 bytes
// in the worst case.
const maxPooledElemCap = 64 << 10

// Repo is the disk-backed stream.Repository: a pass-counted, read-only view
// of an SCB1 file. Every Begin starts an independent sequential decode of the
// file — concurrent passes each own their decode window over the shared
// io.ReaderAt — and a pass keeps only the sets currently in flight resident.
//
// Repo additionally implements stream.BatchReader (batched decode straight
// into engine batches) and stream.Recycler on its readers (the engine hands
// consumed batches back so decode buffers are reused; see DESIGN.md §6),
// and — when the index footer is present — stream.SegmentedRepository: the
// pass engine splits one pass into contiguous chunks seeked via the index
// and decodes them on several goroutines (DESIGN.md §5), which is where an
// indexed file's passes get their multi-core decode throughput.
type Repo struct {
	r       io.ReaderAt
	closer  io.Closer
	size    int64
	n, m    int
	dataOff int64

	// data is the whole file image when the repository is byte-backed (mmap
	// or NewRepoBytes): a reader's window is its span of data itself, so
	// nothing is copied and no refill ever happens. nil on the positional-
	// read path, where ReadAt fills each reader's window as decoding needs.
	data []byte
	// mapped is the mmap region Close must unmap; non-nil only when Open
	// mapped the file itself (a caller-provided byte slice is the caller's).
	mapped []byte

	// offs[i] is the absolute file offset of set i; offs[m] is the end of the
	// set data. cards[i] is |set i|. Both nil when the file has no index.
	offs  []int64
	cards []int32
	// indexOff is the absolute offset of the SCIX footer when offs != nil.
	indexOff int64
	// weights is the decoded SCWT per-set cost vector; nil when the file
	// carries no weight section (the unweighted problem).
	weights []float64

	passes atomic.Int64
	free   elemPool
	// segStates pools the decode state of segment readers (*segState) for
	// the repository's lifetime: each decode goroutine of a segmented pass
	// reuses one window and one stash across its chunks, and the next pass
	// reuses them again.
	segStates sync.Pool
}

// OpenOption customizes Open.
type OpenOption func(*openConfig)

type openConfig struct {
	mmap bool
}

// ReadOnlyMmap asks Open to map the file into memory read-only and decode
// sets directly from the mapping — each pass walks the page cache instead of
// copying the file through a read buffer, which is the fastest scan path on
// files that fit (or mostly fit) in memory. On platforms without mmap support,
// or when the map call fails, Open silently falls back to the positional-read
// path: the option is a performance hint, never a correctness switch, and
// every behavior contract (stream order, recycling, pass counting, error
// surfaces) is identical on both paths.
func ReadOnlyMmap() OpenOption {
	return func(c *openConfig) { c.mmap = true }
}

// Open opens an SCB1 file (with or without index footer) as a repository.
func Open(path string, opts ...OpenOption) (*Repo, error) {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if cfg.mmap && st.Size() > 0 {
		if data, merr := mmapFile(f, st.Size()); merr == nil {
			d, err := NewRepoBytes(data)
			if err != nil {
				munmapFile(data)
				f.Close()
				return nil, err
			}
			d.mapped = data
			d.closer = f
			return d, nil
		}
	}
	d, err := NewRepo(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	d.closer = f
	return d, nil
}

// NewRepoBytes wraps an in-memory SCB1 image as a repository. Readers decode
// straight from data (no buffered read layer); this is the path Open's
// ReadOnlyMmap option routes through, and it works just as well for images
// already held in memory (tests, network payloads). The caller keeps ownership
// of data and must not mutate it while the repository is in use.
func NewRepoBytes(data []byte) (*Repo, error) {
	d, err := NewRepo(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	d.data = data
	return d, nil
}

// NewRepo wraps any io.ReaderAt holding size bytes of SCB1 data as a
// repository. The header (and the index footer, when present) is parsed
// eagerly; set data is only touched by passes.
func NewRepo(r io.ReaderAt, size int64) (*Repo, error) {
	head := make([]byte, 24) // magic + two max-length varints
	if int64(len(head)) > size {
		head = head[:size]
	}
	if _, err := io.ReadFull(io.NewSectionReader(r, 0, size), head); err != nil {
		return nil, fmt.Errorf("scdisk: header: %w", err)
	}
	n, m, k, err := setcover.DecodeBinaryHeader(head)
	if err != nil {
		return nil, err
	}
	d := &Repo{r: r, size: size, n: n, m: m, dataOff: int64(k)}
	if err := d.loadIndex(); err != nil {
		return nil, err
	}
	return d, nil
}

// readFull reads exactly len(buf) bytes at off.
func (d *Repo) readFull(buf []byte, off int64) error {
	_, err := d.r.ReadAt(buf, off)
	return err
}

// loadIndex detects and parses the optional trailing sections: the SCWT
// weight section first (it is outermost — appended after the index; see
// weights.go), then the SCIX index footer at the end of what remains. A file
// without either trailer magic is a plain SCB1 stream: no error, just no
// seek index and unit weights. The index trailer magic alone cannot prove a
// footer exists — a plain file's set data may coincidentally end in those
// four bytes — so when the bytes before it do not validate as an index, the
// file degrades to plain sequential mode (HasIndex reports false, SetSpan
// and segmented passes are unavailable) instead of being rejected:
// sequential decoding is self-delimiting and stays correct either way, and
// genuinely corrupt set data still fails the pass that decodes it. The
// WEIGHT trailer gets the opposite treatment — a detected-but-invalid weight
// section is an open error — because weights change covers, not wall-clock
// (weights.go).
func (d *Repo) loadIndex() error {
	end, err := d.loadWeights()
	if err != nil {
		return err
	}
	if end < d.dataOff+trailerLen {
		return nil
	}
	var tr [trailerLen]byte
	if err := d.readFull(tr[:], end-trailerLen); err != nil {
		return fmt.Errorf("scdisk: trailer: %w", err)
	}
	if !bytes.Equal(tr[8:], trailerMagic[:]) {
		return nil
	}
	if err := d.parseIndex(int64(binary.LittleEndian.Uint64(tr[:8])), end); err != nil {
		d.offs, d.cards = nil, nil
	}
	return nil
}

// parseIndex validates and loads the index claimed to start at indexOff.
// end is where the index block (footer + trailer) must stop: the end of the
// file, or the start of the weight section when one follows.
func (d *Repo) parseIndex(indexOff, end int64) error {
	if indexOff < d.dataOff || indexOff > end-trailerLen {
		return fmt.Errorf("scdisk: index offset %d out of file bounds", indexOff)
	}
	ir := bufio.NewReaderSize(io.NewSectionReader(d.r, indexOff, end-trailerLen-indexOff), 1<<16)
	var magic [4]byte
	if _, err := io.ReadFull(ir, magic[:]); err != nil {
		return fmt.Errorf("scdisk: index: %w", err)
	}
	if magic != indexMagic {
		return fmt.Errorf("scdisk: bad index magic %q", magic[:])
	}
	im, err := binary.ReadUvarint(ir)
	if err != nil {
		return fmt.Errorf("scdisk: index m: %w", err)
	}
	if int64(im) != int64(d.m) {
		return fmt.Errorf("scdisk: index lists %d sets, header %d", im, d.m)
	}
	offs := make([]int64, 0, d.m+1)
	cards := make([]int32, 0, d.m)
	off := d.dataOff
	for i := 0; i < d.m; i++ {
		l, err := binary.ReadUvarint(ir)
		if err != nil {
			return fmt.Errorf("scdisk: index entry %d: %w", i, err)
		}
		c, err := binary.ReadUvarint(ir)
		if err != nil {
			return fmt.Errorf("scdisk: index entry %d: %w", i, err)
		}
		if c > uint64(d.n) {
			return fmt.Errorf("scdisk: index entry %d: cardinality %d exceeds n", i, c)
		}
		// Bound the length against the remaining data span before summing:
		// lengths are untrusted, and an oversized value must not be able to
		// overflow the running offset past the checks below.
		if l > uint64(indexOff-off) {
			return fmt.Errorf("scdisk: index entry %d: set data overruns index", i)
		}
		offs = append(offs, off)
		cards = append(cards, int32(c))
		off += int64(l)
	}
	if off != indexOff {
		return fmt.Errorf("scdisk: index byte lengths sum to %d, data section ends at %d", off, indexOff)
	}
	d.offs = append(offs, off)
	d.cards = cards
	d.indexOff = indexOff
	return nil
}

// digestSampleLen is how much of each end of the set-data section the
// indexed digest additionally hashes (see Digest).
const digestSampleLen = 64 << 10

// Digest returns a stable hex content digest for the instance, computed from
// the cheapest faithful summary available. With the SCIX index present it
// hashes the header dimensions, the whole index section — per-set encoded
// byte length and cardinality for all m sets — plus up to digestSampleLen
// bytes from EACH END of the set-data section: O(index + 128 KB) I/O instead
// of a full-file read (the index is typically <1% of the data), while
// binding actual element bytes, so files up to 128 KB are digested in full
// and larger files can only collide if they agree on dimensions, every
// per-set (byteLen, cardinality), AND both sampled data spans — in practice
// only under deliberate construction, a tradeoff accepted for
// registration-time cheapness (serve.Catalog computes this once per
// registration and uses it as the result-cache key; see ROADMAP for an
// audit-grade full-content mode). Without the index the entire file is
// hashed. The two schemes are domain-separated, so an indexed and a plain
// encoding of the same family get different digests — a digest identifies
// the FILE's content, not the abstract family.
//
// Both schemes bind the SCWT weight section when one is present: the indexed
// scheme hashes everything from the index footer to end of file — which is
// exactly where the weight section lives — and the plain scheme hashes the
// whole file. The same family with and without weights (or with edited
// weights) therefore digests differently, so result caches and fleet routing
// keyed by digest can never serve an unweighted cover for a weighted solve.
func (d *Repo) Digest() (string, error) {
	h := sha256.New()
	if d.offs == nil {
		fmt.Fprintf(h, "scb1-digest-v1\n")
		if _, err := io.Copy(h, io.NewSectionReader(d.r, 0, d.size)); err != nil {
			return "", fmt.Errorf("scdisk: digest: %w", err)
		}
		return hex.EncodeToString(h.Sum(nil)), nil
	}
	fmt.Fprintf(h, "scix-digest-v2 n=%d m=%d\n", d.n, d.m)
	if _, err := io.Copy(h, io.NewSectionReader(d.r, d.indexOff, d.size-d.indexOff)); err != nil {
		return "", fmt.Errorf("scdisk: digest: %w", err)
	}
	head := d.indexOff - d.dataOff // data-section length
	if head > digestSampleLen {
		head = digestSampleLen
	}
	if _, err := io.Copy(h, io.NewSectionReader(d.r, d.dataOff, head)); err != nil {
		return "", fmt.Errorf("scdisk: digest: %w", err)
	}
	tailStart := d.indexOff - digestSampleLen
	if tailStart < d.dataOff+head {
		tailStart = d.dataOff + head // avoid re-hashing overlap on small files
	}
	if _, err := io.Copy(h, io.NewSectionReader(d.r, tailStart, d.indexOff-tailStart)); err != nil {
		return "", fmt.Errorf("scdisk: digest: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// VerifyDigest returns the audit-grade content digest: a hash of the ENTIRE
// file, byte for byte, regardless of whether the index footer is present.
// Where Digest trades completeness for registration-time cheapness (on
// indexed files it samples 64 KB from each end of the data section, so a
// deliberate mid-file corruption that preserves the index profile can escape
// it), VerifyDigest reads every byte: any bit flip anywhere in the file
// changes it. The cost is a full sequential read — O(file size) I/O — which
// is why it is the opt-in mode (setcoverd -verify-digest) rather than the
// default. The scheme is domain-separated from both Digest schemes, so a
// sampled digest can never be confused with a full one: fleets must register
// with one mode consistently for digest addressing and the shared result
// cache to line up.
func (d *Repo) VerifyDigest() (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "scb1-verify-digest-v1\n")
	if _, err := io.Copy(h, io.NewSectionReader(d.r, 0, d.size)); err != nil {
		return "", fmt.Errorf("scdisk: verify digest: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Close unmaps the file when Open mapped it and releases the underlying file
// when the repository owns one.
func (d *Repo) Close() error {
	var err error
	if d.mapped != nil {
		err = munmapFile(d.mapped)
		d.mapped, d.data = nil, nil
	}
	if d.closer != nil {
		if cerr := d.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Mapped reports whether passes decode from a memory-mapped (or otherwise
// byte-backed) image rather than through positional reads.
func (d *Repo) Mapped() bool { return d.data != nil }

// PoolLockAcquisitions returns how many times any pass has locked a decode
// buffer pool shard since the repository was opened — the contention signal
// cmd/scbench reports per benchmark case.
func (d *Repo) PoolLockAcquisitions() int64 { return d.free.lockAcquisitions() }

// UniverseSize returns n.
func (d *Repo) UniverseSize() int { return d.n }

// NumSets returns m.
func (d *Repo) NumSets() int { return d.m }

// Passes returns the number of passes started so far.
func (d *Repo) Passes() int { return int(d.passes.Load()) }

// ResetPasses zeroes the pass counter (used between experiment phases).
func (d *Repo) ResetPasses() { d.passes.Store(0) }

// HasIndex reports whether the file carries the seek index footer.
func (d *Repo) HasIndex() bool { return d.offs != nil }

// SetSpan returns the absolute byte offset, encoded length, and cardinality
// of set i, when the index is present.
func (d *Repo) SetSpan(i int) (off, length int64, card int, ok bool) {
	if d.offs == nil || i < 0 || i >= d.m {
		return 0, 0, 0, false
	}
	return d.offs[i], d.offs[i+1] - d.offs[i], int(d.cards[i]), true
}

// DataBytes returns the byte length of the set-data section — what one full
// pass decodes; the pass engine stamps it into trace records. 0 when the
// seek index is absent (the span arithmetic needs it); the trace field it
// feeds is best-effort.
func (d *Repo) DataBytes() int64 {
	if d.offs == nil || d.m == 0 {
		return 0
	}
	return d.offs[d.m] - d.offs[0]
}

// Begin starts a new sequential pass over the whole family.
func (d *Repo) Begin() stream.Reader {
	d.passes.Add(1)
	r := d.newReader(0, d.m, d.dataOff, d.size, nil, readerBufSize)
	r.shard = d.free.shard()
	return r
}

// newReader returns a reader of sets [pos, end) whose encoded bytes are the
// file span [off, limit). On a byte-backed repository the window is the span
// itself. Otherwise it starts empty, with room for min(span, size) bytes —
// reusing buf's storage when that is large enough — and ReadAt fills it as
// decoding needs. A sequential pass's span runs to the end of the file (index
// footer, trailing bytes); decoding stops after end-pos sets, so the excess
// is never decoded.
func (d *Repo) newReader(pos, end int, off, limit int64, buf []byte, size int) *reader {
	r := &reader{d: d, pos: pos, end: end, next: off, limit: limit}
	if d.data != nil {
		r.win, r.next = d.data[off:limit], limit
	} else if w := int(min(limit-off, int64(size))); cap(buf) >= w {
		r.win = buf[:0]
	} else {
		r.win = make([]byte, 0, w)
	}
	return r
}

// BeginSegmented implements stream.SegmentedRepository: one counted pass
// whose contiguous chunks are decoded by independent readers, each seeked to
// its byte offset through the index. Without the index footer a plain SCB1
// file cannot be split (set boundaries are only discovered by decoding), so
// ok is false, no pass is counted, and callers fall back to Begin.
func (d *Repo) BeginSegmented() (stream.SegmentSource, bool) {
	if d.offs == nil {
		return nil, false
	}
	d.passes.Add(1)
	return &segSource{d: d}, true
}

// segSource opens chunk readers for one segmented pass. Their decode state
// comes from the repository's segStates pool (segState).
type segSource struct {
	d *Repo
}

// segState is the reusable decode state of one chunk reader: the decode
// window and the buffer stash backing the batched pool draw. A chunk is a
// few tens of KB, so pooling it per repository saves allocating both
// ~m/BatchSize times per pass.
type segState struct {
	win   []byte            // positional-read window storage; nil on the byte path
	stash [][]setcover.Elem // emptied between chunks; capacity is what's reused
	shard int               // pool shard this decode state draws from, fixed at creation
}

// PlanSegments implements stream.SegmentSource: chunk boundaries are cut so
// every chunk covers ≈equal ENCODED BYTES (read straight off the SCIX per-set
// spans) rather than equal set COUNTS. On skewed families — one set carrying
// half the file's bytes, say — count-uniform chunks hand one decoder nearly
// all the work and the pass runs at single-thread speed; byte-balanced chunks
// keep every decoder busy for ≈the same wall-clock. The plan affects chunk
// shapes only: the engine still delivers chunks in stream order, so the
// observed stream is byte-identical to the sequential one (pinned by the
// segmented conformance and fuzz suites).
func (s *segSource) PlanSegments(targetChunks int) []int {
	return planByteChunks(s.d.offs, targetChunks)
}

// planByteChunks greedily partitions sets [0, m) into at most target
// contiguous chunks of ≈total/target encoded bytes each: cut k lands on the
// first set whose start offset reaches the k-th ideal byte position. A set so
// large that it spans several ideal positions becomes (most of) one chunk and
// the plan re-anchors past it — ideal cut positions inside an unsplittable
// set cannot be honored, so the plan yields fewer, still maximally balanced,
// chunks. Deterministic in (offs, target). Each cut is found by binary
// search over the strictly increasing offs, so a plan costs O(target·log m),
// not a sweep of all m offsets per pass.
func planByteChunks(offs []int64, target int) []int {
	m := len(offs) - 1
	if m <= 0 {
		return []int{0}
	}
	if target < 1 {
		target = 1
	}
	if target > m {
		target = m
	}
	base, total := offs[0], offs[m]-offs[0]
	// width ≥ 1: every set is at least one encoded byte, and target ≤ m.
	width := total / int64(target)
	bounds := make([]int, 1, target+1) // bounds[0] == 0
	for k, lo := int64(1), 1; k < int64(target); {
		i, _ := slices.BinarySearch(offs[lo:m], base+k*width)
		if i += lo; i == m {
			break
		}
		bounds = append(bounds, i)
		k = (offs[i]-base)/width + 1 // skip ideal positions swallowed by the chunk just closed
		lo = i + 1
	}
	return append(bounds, m)
}

// Segment returns a reader for sets [start, end), positioned by one seek.
// The reader verifies it consumes its byte span exactly (reader.finish): the
// index's per-set byte lengths are validated in aggregate at open, but a
// crafted index could still lie about interior boundaries while keeping the
// total right, and seeking with a wrong boundary decodes garbage mid-set.
// A span mismatch fails the chunk; since the engine delivers chunks in
// stream order and stops at the first failure, observers can never see sets
// past an unvalidated boundary — segmented decode either matches the
// sequential stream byte for byte or fails loudly.
func (s *segSource) Segment(start, end int) stream.Reader {
	st, _ := s.d.segStates.Get().(*segState)
	if st == nil {
		st = &segState{shard: s.d.free.shard()}
	}
	r := s.d.newReader(start, end, s.d.offs[start], s.d.offs[end], st.win, segBufSize)
	r.seg, r.stash, r.shard = st, st.stash, st.shard
	return r
}

// Recycle implements stream.Recycler at the source level: the pass engine's
// reorder layer hands consumed batches back here, and the element buffers
// rejoin the repository pool the chunk decoders draw from. Returns rotate
// across shards so the concurrent decoders (each pinned to its own shard)
// all find refills without fighting over one lock.
func (s *segSource) Recycle(sets []setcover.Set) { s.d.free.put(sets, s.d.free.shard()) }

// reader decodes one span of the file: a whole pass (Begin) or one chunk of
// a segmented pass (segSource.Segment). Each reader owns its decode window,
// so concurrent spans never share decode state, and each carries its own
// error — pass failures are scoped to the pass.
type reader struct {
	d *Repo
	// win[wpos:] are the span bytes loaded and not yet decoded; [next, limit)
	// are the span bytes not loaded yet. On the byte path win is the whole
	// span and next == limit from the start.
	win         []byte
	wpos        int
	next, limit int64
	pos         int
	end         int
	shard       int // pool shard this reader draws from and returns to
	failed      bool
	err         error
	// seg is a segment reader's pooled decode state until finish verifies
	// the span and returns it; nil for a sequential pass.
	seg *segState
	// stash holds recycled decode buffers drawn from the repository pool a
	// batch at a time (one lock per NextBatch instead of one per set);
	// leftovers flow back on finish.
	stash [][]setcover.Elem
}

// decodeNext decodes the next set from the front of the window. Only a set
// cut off by the end of the window (io.ErrUnexpectedEOF) while the span
// still has bytes refills the window and decodes again; any other error, or
// truncation at the end of the span, fails the pass. Both backends run this
// one decode call, so their streams are byte-identical.
func (it *reader) decodeNext(buf []setcover.Elem) ([]setcover.Elem, error) {
	for {
		elems, k, err := setcover.DecodeSetBytes(it.win[it.wpos:], it.d.n, buf)
		if err == nil {
			it.wpos += k
			return elems, nil
		}
		if it.next == it.limit || !errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, err
		}
		if err := it.refill(); err != nil {
			return nil, err
		}
	}
}

// refill slides the undecoded tail of the window to its front, doubles the
// window when that tail already fills it (one set larger than the window),
// and reads the next span bytes in behind the tail. A ReadAt that returns
// every byte asked for succeeds even if it also reports io.EOF; a short one
// fails with its error (io.ErrUnexpectedEOF if it broke the io.ReaderAt
// contract and gave none, which would otherwise loop here forever).
func (it *reader) refill() error {
	buf := it.win[:cap(it.win)]
	tail := copy(buf, it.win[it.wpos:])
	if tail == len(buf) {
		buf = slices.Grow(buf, tail)[:2*tail]
	}
	dst := buf[tail : tail+int(min(int64(len(buf)-tail), it.limit-it.next))]
	if got, err := it.d.r.ReadAt(dst, it.next); got < len(dst) {
		return cmp.Or(err, io.ErrUnexpectedEOF)
	}
	it.next += int64(len(dst))
	it.win, it.wpos = buf[:tail+len(dst)], 0
	return nil
}

// Next decodes the next set into a freshly allocated element slice. The
// batched path (NextBatch) is the one that reuses recycled buffers; Next is
// kept allocation-fresh so direct scanners may retain what they are handed.
func (it *reader) Next() (setcover.Set, bool) {
	if it.failed || it.pos >= it.end {
		it.finish()
		return setcover.Set{}, false
	}
	elems, err := it.decodeNext(nil)
	if err != nil {
		it.fail(err)
		return setcover.Set{}, false
	}
	s := setcover.Set{ID: it.pos, Elems: elems}
	it.pos++
	return s, true
}

// NextBatch decodes up to cap(dst) sets, drawing element buffers from the
// repository's recycle pool. Callers (the pass engine) must hand the batch
// back via Recycle once every consumer is done with it; a caller that does
// not recycle simply forfeits reuse.
func (it *reader) NextBatch(dst []setcover.Set) int {
	dst = dst[:cap(dst)]
	// Top the stash up to a batch's worth of recycled buffers in ONE pool
	// lock, instead of hitting the mutex once per decoded set. In steady
	// state (engine recycles every batch) the stash drains exactly as the
	// batch fills, so the pool sees two lock acquisitions per batch.
	if need := len(dst) - len(it.stash); need > 0 && !it.failed && it.pos < it.end {
		it.stash = it.d.free.fill(it.stash, need, it.shard)
	}
	k := 0
	for k < len(dst) && !it.failed && it.pos < it.end {
		var buf []setcover.Elem
		if n := len(it.stash); n > 0 {
			buf = it.stash[n-1]
			it.stash[n-1] = nil
			it.stash = it.stash[:n-1]
		}
		elems, err := it.decodeNext(buf)
		if err != nil {
			it.fail(err)
			break
		}
		dst[k] = setcover.Set{ID: it.pos, Elems: elems}
		it.pos++
		k++
	}
	if it.failed || it.pos >= it.end {
		it.finish()
	}
	return k
}

// finish closes out the span: segment readers verify the byte span was
// consumed exactly (see segSource.Segment) — the window is drained and the
// span has no bytes left to load — then the decode state goes back to the
// repository's pool.
func (it *reader) finish() {
	if len(it.stash) > 0 {
		// Unused recycled buffers (short final batch, failed span) rejoin the
		// pool rather than leaking with the reader.
		it.d.free.putBufs(it.stash, it.shard)
		it.stash = it.stash[:0]
	}
	st := it.seg
	if st == nil {
		return
	}
	it.seg = nil // fail below re-enters finish
	if !it.failed && (it.wpos < len(it.win) || it.next < it.limit) {
		it.fail(fmt.Errorf("segment ending at set %d: bytes left after the last set — index span mismatch", it.end))
	}
	st.stash = it.stash // emptied above; keeps its capacity for the next chunk
	if it.d.data == nil {
		st.win = it.win // possibly grown by a large set; reused by the next chunk
	}
	it.d.segStates.Put(st)
}

// Recycle implements stream.Recycler: consumed batches return their element
// buffers to the repository pool, to the same shard this reader fills from —
// a single-worker sequential pass therefore touches exactly one shard, with
// the same two-locks-per-batch profile the unsharded pool had.
func (it *reader) Recycle(sets []setcover.Set) { it.d.free.put(sets, it.shard) }

// Err returns the decode error that ended this pass early, if any.
func (it *reader) Err() error { return it.err }

func (it *reader) fail(err error) {
	err = fmt.Errorf("scdisk: set %d: %w", it.pos, err)
	it.failed = true
	it.err = err
	it.finish()
}

// poolShards is how many independent free lists the decode-buffer pool splits
// into. A power of two; sized so a realistic decoder count (the engine caps
// segmented workers well below this on the machines we target) maps each
// decoder to its own lock.
const poolShards = 8

// maxPooledPerShard splits the global pool cap evenly; a full shard drops
// returns even if another shard has room — the cap is a memory safety bound,
// not an exact budget.
const maxPooledPerShard = maxPooledElems / poolShards

// elemPool is the shared free list of decode buffers, sharded so concurrent
// chunk decoders are not serialized on one mutex. Mutexes rather than
// sync.Pool: buffers must survive GC cycles between passes for the
// steady-state allocation profile tests rely on.
//
// Both directions are batched — fill hands a whole batch's worth of buffers
// to a decoder in one lock acquisition and put returns a consumed batch in
// one — and each reader is pinned to one shard (round-robin at creation), so
// a single-worker pass costs two acquisitions per ~BatchSize sets on one
// shard, while W segmented decoders spread over min(W, poolShards) disjoint
// locks. fill falls back to sweeping the other shards (each peeked through an
// atomic length before paying for its lock) only when its own runs dry, which
// is what keeps the steady-state reuse guarantee regardless of how returns
// distribute. Every acquisition is counted; cmd/scbench reports the delta per
// case, so pool contention is a measured quantity, not a guess.
type elemPool struct {
	rr     atomic.Uint64 // round-robin cursor assigning shards to readers and source-level returns
	locks  atomic.Int64  // total lock acquisitions (bench visibility)
	shards [poolShards]poolShard
}

// poolShard is one free list; padded so neighboring shard locks do not share
// a cache line.
type poolShard struct {
	n    atomic.Int32 // == len(free), maintained under mu, read racily by fill's sweep
	mu   sync.Mutex
	free [][]setcover.Elem
	_    [24]byte
}

// shard returns the next shard index round-robin: readers call it once at
// creation, segSource.Recycle per returned batch.
func (p *elemPool) shard() int {
	return int(p.rr.Add(1) % poolShards)
}

// lock acquires a shard's mutex, counted.
func (p *elemPool) lock(s *poolShard) {
	s.mu.Lock()
	p.locks.Add(1)
}

// lockAcquisitions returns the total shard-lock acquisitions so far.
func (p *elemPool) lockAcquisitions() int64 { return p.locks.Load() }

// fill appends up to want recycled buffers to dst and returns the extended
// slice, drawing from the caller's shard first and sweeping the others only
// if it runs dry; fewer (or none) come back when the whole pool is low, and
// the decoder allocates fresh for the difference.
func (p *elemPool) fill(dst [][]setcover.Elem, want, shard int) [][]setcover.Elem {
	target := len(dst) + want
	for i := 0; i < poolShards && len(dst) < target; i++ {
		s := &p.shards[(shard+i)%poolShards]
		if s.n.Load() == 0 {
			continue // cheap peek: don't pay for a lock on an empty shard
		}
		p.lock(s)
		if k := min(target-len(dst), len(s.free)); k > 0 {
			tail := s.free[len(s.free)-k:]
			dst = append(dst, tail...)
			for j := range tail {
				tail[j] = nil // do not pin recycled buffers through the free-list's spare capacity
			}
			s.free = s.free[:len(s.free)-k]
			s.n.Store(int32(len(s.free)))
		}
		s.mu.Unlock()
	}
	return dst
}

func (p *elemPool) put(sets []setcover.Set, shard int) {
	s := &p.shards[shard%poolShards]
	p.lock(s)
	defer s.mu.Unlock()
	for _, set := range sets {
		// Oversized buffers (grown by one pathologically large set) are
		// dropped rather than pinned for the repository's lifetime.
		if c := cap(set.Elems); c > 0 && c <= maxPooledElemCap && len(s.free) < maxPooledPerShard {
			s.free = append(s.free, set.Elems[:0])
		}
	}
	s.n.Store(int32(len(s.free)))
}

// putBufs returns raw, unused buffers (a reader's stash at end of span) under
// one lock, with the same caps as put.
func (p *elemPool) putBufs(bufs [][]setcover.Elem, shard int) {
	s := &p.shards[shard%poolShards]
	p.lock(s)
	defer s.mu.Unlock()
	for _, b := range bufs {
		if c := cap(b); c > 0 && c <= maxPooledElemCap && len(s.free) < maxPooledPerShard {
			s.free = append(s.free, b[:0])
		}
	}
	s.n.Store(int32(len(s.free)))
}
