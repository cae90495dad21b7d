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

// arenaListBytes caps the arena list of a repository, in bytes of element
// capacity. Sequential passes hold one arena per batch in flight, so the
// list stays far below it; the cap matters when an arena comes back grown by
// one huge set: an arena that would take the list past the cap is dropped,
// and one larger than the cap on its own is never kept.
const arenaListBytes = 4 << 20

// Repo is the disk-backed stream.Repository: a pass-counted, read-only view
// of an SCB1 file. Every Begin starts an independent sequential decode of the
// file — concurrent passes each own their decode window over the shared
// io.ReaderAt — and a pass keeps only the sets currently in flight resident.
//
// Repo additionally implements stream.BatchReader (each batch decoded into
// one element arena) and stream.Recycler on its readers (the engine hands
// consumed batches back so their arenas are reused; see DESIGN.md §6), and —
// when the index footer is present — stream.SegmentedRepository: the pass
// engine splits one pass into contiguous chunks seeked via the index and
// decodes them on several goroutines (DESIGN.md §5), which is where an
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
	arenas arenaList
	// segReaders pools the chunk readers of segmented passes (*reader) for
	// the repository's lifetime: a chunk decode reuses one reader and its
	// window, and the next pass reuses them again.
	segReaders sync.Pool
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

// PoolLockAcquisitions returns how many times a sequential pass has locked
// the repository's arena list since it was opened — the contention signal
// cmd/scbench reports per benchmark case. Segmented passes keep their arenas
// in the engine's chunk records and take no lock here.
func (d *Repo) PoolLockAcquisitions() int64 { return d.arenas.locks.Load() }

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
	it := &reader{}
	it.reset(d, 0, d.m, d.dataOff, d.size, readerBufSize)
	return it
}

// reset points it at sets [pos, end), whose encoded bytes are the file span
// [off, limit). On a byte-backed repository the window is the span itself.
// Otherwise it starts empty, with room for min(span, size) bytes — reusing
// the storage of its previous window when that is large enough — and
// ReadAt fills it as decoding needs. A sequential pass's span runs to the end
// of the file (index footer, trailing bytes); decoding stops after end-pos
// sets, so the excess is never decoded.
func (it *reader) reset(d *Repo, pos, end int, off, limit int64, size int) {
	win := it.win
	*it = reader{d: d, pos: pos, end: end, next: off, limit: limit}
	if d.data != nil {
		it.win, it.next = d.data[off:limit], limit
	} else if w := int(min(limit-off, int64(size))); cap(win) >= w {
		it.win = win[:0]
	} else {
		it.win = make([]byte, 0, w)
	}
}

// BeginSegmented implements stream.SegmentedRepository: one counted pass
// whose contiguous chunks are decoded independently, each seeked to its byte
// offset through the index. Without the index footer a plain SCB1 file
// cannot be split (set boundaries are only discovered by decoding), so ok is
// false, no pass is counted, and callers fall back to Begin.
func (d *Repo) BeginSegmented() (stream.SegmentSource, bool) {
	if d.offs == nil {
		return nil, false
	}
	d.passes.Add(1)
	return segSource{d: d}, true
}

// segSource decodes the chunks of one segmented pass.
type segSource struct {
	d *Repo
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
func (s segSource) PlanSegments(targetChunks int) []int {
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

// DecodeSegment implements stream.SegmentSource: it decodes sets
// [start, end), positioned by one seek, into one arena sized from the SCIX
// cardinalities. The sum is clipped to the chunk's byte span — every element
// takes at least one byte, so a lying index cannot demand more memory than
// the file holds — and a set that still does not fit moves to a bigger
// arena (reader.decode).
//
// The chunk must consume its byte span exactly: the index's per-set byte
// lengths are validated in aggregate at open, but a crafted index could
// still lie about interior boundaries while keeping the total right, and
// seeking with a wrong boundary decodes garbage mid-set. A span mismatch
// fails the chunk; since the engine delivers chunks in stream order and
// stops at the first failure, observers can never see sets past an
// unvalidated boundary — segmented decode either matches the sequential
// stream byte for byte or fails loudly.
func (s segSource) DecodeSegment(start, end int, sets []setcover.Set, arena []setcover.Elem) ([]setcover.Set, []setcover.Elem, error) {
	d := s.d
	it, _ := d.segReaders.Get().(*reader)
	if it == nil {
		it = &reader{}
	}
	defer d.segReaders.Put(it)
	it.reset(d, start, end, d.offs[start], d.offs[end], segBufSize)
	need := 0
	for _, c := range d.cards[start:end] {
		need += int(c)
	}
	if need = min(need, int(d.offs[end]-d.offs[start])); cap(arena) < need {
		arena = make([]setcover.Elem, 0, need)
	}
	sets = slices.Grow(sets[:0], end-start)[:end-start]
	k, arena := it.decode(sets, arena[:0])
	if it.err == nil && (it.wpos < len(it.win) || it.next < it.limit) {
		it.fail(fmt.Errorf("segment ending at set %d: bytes left after the last set — index span mismatch", end))
	}
	if d.data != nil {
		it.win = nil // a window into the image: nothing to reuse
	}
	return sets[:k], arena, it.err
}

// reader decodes one span of the file: a whole pass (Begin) or one chunk of
// a segmented pass (segSource.DecodeSegment). Each reader owns its decode
// window, so concurrent spans never share decode state, and each carries its
// own error — pass failures are scoped to the pass.
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
	err         error
	// held[head:] are the arenas of the batches NextBatch returned and
	// Recycle has not yet handed back, oldest first; guarded by the
	// repository's arena-list lock. Recycle compacts the queue once half
	// of it is consumed, so it stays as long as the batches in flight.
	held [][]setcover.Elem
	head int
}

// decodeNext decodes the next set from the front of the window into buf's
// storage. Only a set cut off by the end of the window
// (io.ErrUnexpectedEOF) while the span still has bytes refills the window
// and decodes again; any other error, or truncation at the end of the span,
// fails the pass. Both backends run this one decode call, so their streams
// are byte-identical.
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

// decode decodes sets into dst until dst is full, the span ends or a set
// fails, with their elements appended to arena, and returns how many it
// wrote and the arena. Each set is a capacity-clipped view of the arena, so
// an observer that appends to one reallocates instead of overwriting the
// next set. A set that does not fit moves to a fresh arena of at least
// twice the capacity; the sets before it keep viewing the old one, and the
// fresh one is what the caller keeps.
func (it *reader) decode(dst []setcover.Set, arena []setcover.Elem) (int, []setcover.Elem) {
	k := 0
	for ; k < len(dst) && it.err == nil && it.pos < it.end; k++ {
		a := len(arena)
		elems, err := it.decodeNext(arena[a:])
		if err != nil {
			it.fail(err)
			break
		}
		if len(elems) <= cap(arena)-a {
			arena = arena[:a+len(elems)]
		} else {
			arena, a = append(make([]setcover.Elem, 0, max(2*cap(arena), len(elems))), elems...), 0
		}
		dst[k] = setcover.Set{ID: it.pos, Elems: arena[a:len(arena):len(arena)]}
		it.pos++
	}
	return k, arena
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
// batched path (NextBatch) is the one that reuses arenas; Next is kept
// allocation-fresh so direct scanners may retain what they are handed.
func (it *reader) Next() (setcover.Set, bool) {
	if it.err != nil || it.pos >= it.end {
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

// NextBatch decodes up to cap(dst) sets into one arena drawn from the
// repository's arena list. Callers (the pass engine) must hand the batch
// back via Recycle once every consumer is done with it; a caller that does
// not recycle simply forfeits reuse.
func (it *reader) NextBatch(dst []setcover.Set) int {
	if it.err != nil || it.pos >= it.end {
		return 0
	}
	l := &it.d.arenas
	k, arena := it.decode(dst[:cap(dst)], l.get())
	l.lock()
	if k > 0 {
		it.held = append(it.held, arena)
	} else {
		l.put(arena) // nothing views it: the first set failed
	}
	l.mu.Unlock()
	return k
}

// Recycle implements stream.Recycler: it returns the oldest arena the
// reader holds to the repository's list. The engine recycles each batch
// once, and when the k-th call arrives the first k batches are done, so the
// oldest arena is free whichever batch the call names.
func (it *reader) Recycle([]setcover.Set) {
	l := &it.d.arenas
	l.lock()
	defer l.mu.Unlock()
	if it.head == len(it.held) {
		return
	}
	a := it.held[it.head]
	it.held[it.head] = nil
	if it.head++; 2*it.head >= len(it.held) {
		n := copy(it.held, it.held[it.head:])
		clear(it.held[n:])
		it.held, it.head = it.held[:n], 0
	}
	l.put(a)
}

// Err returns the decode error that ended this pass early, if any.
func (it *reader) Err() error { return it.err }

func (it *reader) fail(err error) {
	it.err = fmt.Errorf("scdisk: set %d: %w", it.pos, err)
}

// arenaList is the repository's free list of batch arenas for sequential
// passes: one mutex-guarded list holding at most arenaListBytes of element
// capacity. A pass takes an arena per batch and Recycle returns it. Mutex
// rather than sync.Pool: arenas must survive GC cycles between passes for
// the steady-state allocation profile the memory-bound tests rely on. Every
// acquisition is counted; cmd/scbench reports the delta per case.
type arenaList struct {
	mu    sync.Mutex
	locks atomic.Int64
	free  [][]setcover.Elem
	bytes int // element capacity of free, in bytes
}

// lock acquires the list's mutex, counted.
func (l *arenaList) lock() {
	l.mu.Lock()
	l.locks.Add(1)
}

// get pops a free arena, or returns nil when the list is empty.
func (l *arenaList) get() []setcover.Elem {
	l.lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return nil
	}
	a := l.free[n-1]
	l.free[n-1] = nil // do not pin a handed-out arena through spare capacity
	l.free = l.free[:n-1]
	l.bytes -= 4 * cap(a)
	return a
}

// put keeps a, emptied, unless that would take the list past
// arenaListBytes. The caller holds the lock.
func (l *arenaList) put(a []setcover.Elem) {
	if b := 4 * cap(a); b > 0 && l.bytes+b <= arenaListBytes {
		l.free = append(l.free, a[:0])
		l.bytes += b
	}
}
