package scdisk

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/setcover"
	"repro/internal/stream"
)

func digestTestInstance(t *testing.T, seed int64) *setcover.Instance {
	t.Helper()
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 120, M: 260, K: 8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// The digest must be a pure function of file content: two opens of the same
// file agree, and re-encoding the identical family to a second file agrees
// too (registration digests are cache keys — instability would split the
// cache, collision across different content would poison it).
func TestDigestStableAcrossOpens(t *testing.T) {
	in := digestTestInstance(t, 7)
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.scb")
	pathB := filepath.Join(dir, "b.scb")
	if err := WriteFile(pathA, in); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(pathB, in); err != nil {
		t.Fatal(err)
	}
	var digests []string
	for _, p := range []string{pathA, pathA, pathB} {
		d, err := Open(p)
		if err != nil {
			t.Fatal(err)
		}
		dig, err := d.Digest()
		d.Close()
		if err != nil {
			t.Fatal(err)
		}
		if dig == "" {
			t.Fatal("empty digest")
		}
		digests = append(digests, dig)
	}
	if digests[0] != digests[1] || digests[0] != digests[2] {
		t.Fatalf("digests diverge for identical content: %v", digests)
	}
}

// Different families must get different digests (the indexed digest binds n,
// m, and the per-set byte length + cardinality sequence, which these two
// instances differ in).
func TestDigestDistinguishesInstances(t *testing.T) {
	dir := t.TempDir()
	var digs [2]string
	for i, seed := range []int64{1, 2} {
		p := filepath.Join(dir, "x.scb")
		if err := WriteFile(p, digestTestInstance(t, seed)); err != nil {
			t.Fatal(err)
		}
		d, err := Open(p)
		if err != nil {
			t.Fatal(err)
		}
		digs[i], err = d.Digest()
		d.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if digs[0] == digs[1] {
		t.Fatalf("different instances share digest %s", digs[0])
	}
}

// A plain SCB1 stream (no SCIX footer) digests through the full-file
// fallback; the two schemes are domain-separated so the digest still changes
// with content and never collides with the indexed form by construction.
func TestDigestPlainFileFallback(t *testing.T) {
	in := digestTestInstance(t, 3)
	var plain bytes.Buffer
	if err := setcover.WriteBinary(&plain, in); err != nil {
		t.Fatal(err)
	}
	d, err := NewRepo(bytes.NewReader(plain.Bytes()), int64(plain.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if d.HasIndex() {
		t.Fatal("plain SCB1 unexpectedly has an index")
	}
	dig1, err := d.Digest()
	if err != nil {
		t.Fatal(err)
	}
	// Same family, indexed encoding: must not collide with the plain digest
	// (domain separation), and must itself be stable.
	var indexed bytes.Buffer
	if err := Write(&indexed, in); err != nil {
		t.Fatal(err)
	}
	di, err := NewRepo(bytes.NewReader(indexed.Bytes()), int64(indexed.Len()))
	if err != nil {
		t.Fatal(err)
	}
	dig2, err := di.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if dig1 == dig2 {
		t.Fatal("plain and indexed digests collide")
	}
	// Content change flips the plain digest too.
	mutated := append([]byte(nil), plain.Bytes()...)
	mutated[len(mutated)-1] ^= 1
	dm, err := NewRepo(bytes.NewReader(mutated), int64(len(mutated)))
	if err != nil {
		t.Fatal(err)
	}
	dig3, err := dm.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if dig3 == dig1 {
		t.Fatal("mutated file shares the plain digest")
	}
}

// The batched arena path must decode the identical stream a fresh
// sequential decode does, under recycling pressure: run several
// batched+recycled passes and compare against the instance.
func TestBatchedStashDecodeMatchesSequential(t *testing.T) {
	in := digestTestInstance(t, 11)
	p := filepath.Join(t.TempDir(), "s.scb")
	if err := WriteFile(p, in); err != nil {
		t.Fatal(err)
	}
	d, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for pass := 0; pass < 3; pass++ {
		it := d.Begin().(*reader)
		batch := make([]setcover.Set, 0, 7) // deliberately odd batch size
		pos := 0
		for {
			k := it.NextBatch(batch[:0])
			if k == 0 {
				break
			}
			for _, s := range batch[:k] {
				if s.ID != pos {
					t.Fatalf("pass %d: set ID %d at stream position %d", pass, s.ID, pos)
				}
				want := in.Sets[pos].Elems
				if len(s.Elems) != len(want) {
					t.Fatalf("pass %d set %d: %d elems, want %d", pass, pos, len(s.Elems), len(want))
				}
				for i := range want {
					if s.Elems[i] != want[i] {
						t.Fatalf("pass %d set %d: elem[%d] = %d, want %d", pass, pos, i, s.Elems[i], want[i])
					}
				}
				pos++
			}
			it.Recycle(batch[:k])
		}
		if err := it.Err(); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if pos != in.M() {
			t.Fatalf("pass %d: saw %d of %d sets", pass, pos, in.M())
		}
	}
}

// A batch is one arena from the list and every set in it a capacity-clipped
// view, so an observer appending to one set cannot overwrite the next. The
// byte cap holds however many arenas come back: the list keeps what fits
// under arenaListBytes and drops the rest.
func TestElemPoolFillBatched(t *testing.T) {
	in := digestTestInstance(t, 12)
	d, err := Open(writeTemp(t, in))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	it := d.Begin()
	batch := make([]setcover.Set, 0, 16)
	batch = batch[:it.(stream.BatchReader).NextBatch(batch)]
	if len(batch) < 2 {
		t.Fatalf("first batch holds %d sets", len(batch))
	}
	for i, s := range batch {
		if cap(s.Elems) != len(s.Elems) {
			t.Fatalf("set %d: view capacity %d past its %d elements", i, cap(s.Elems), len(s.Elems))
		}
	}
	next := slices.Clone(batch[1].Elems)
	_ = append(batch[0].Elems, -1)
	if !slices.Equal(batch[1].Elems, next) {
		t.Fatal("appending to one set overwrote the next")
	}

	var l arenaList
	const per = 1 << 16 // elements: 256 KB an arena
	for i := 0; i < 2*arenaListBytes/(4*per); i++ {
		l.put(make([]setcover.Elem, 0, per))
		if l.bytes > arenaListBytes {
			t.Fatalf("after %d returns the list holds %d bytes, cap %d", i+1, l.bytes, arenaListBytes)
		}
	}
	if want := arenaListBytes / (4 * per); len(l.free) != want || l.bytes != arenaListBytes {
		t.Fatalf("list kept %d arenas (%d bytes), want %d (%d bytes)", len(l.free), l.bytes, want, arenaListBytes)
	}
	if a := l.get(); cap(a) != per || l.bytes != arenaListBytes-4*per {
		t.Fatalf("get returned capacity %d and left %d bytes", cap(a), l.bytes)
	}
}

// The arena a pass returns is the one the next pass decodes into, and every
// acquisition of the one list lock is counted: a sequential pass costs three
// per batch (take, hold, recycle).
func TestElemPoolShardSweepAndLockCount(t *testing.T) {
	in := digestTestInstance(t, 13)
	d, err := Open(writeTemp(t, in))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sets, _ := drainPass(d.Begin(), 16, nil)
	batches := (sets + 15) / 16
	if got, want := d.PoolLockAcquisitions(), int64(3*batches); got != want {
		t.Fatalf("a %d-batch pass locked the list %d times, want %d", batches, got, want)
	}
	if len(d.arenas.free) != 1 {
		t.Fatalf("after a sequential pass the list holds %d arenas, want the one it cycled", len(d.arenas.free))
	}
	kept := d.arenas.free[0][:1]
	batch := make([]setcover.Set, 0, 16)
	it := d.Begin()
	if batch = batch[:it.(stream.BatchReader).NextBatch(batch)]; len(batch) == 0 || len(batch[0].Elems) == 0 {
		t.Fatal("second pass decoded nothing")
	}
	if &batch[0].Elems[0] != &kept[0] {
		t.Fatal("the second pass did not decode into the arena the first pass returned")
	}
}

// The audit gap, pinned: on a file whose data section is larger than both
// sampled ends, a single bit flip in the MIDDLE of the data section preserves
// the header, the whole index (per-set byte lengths and cardinalities), and
// both 64KB samples — so the cheap registration Digest cannot see it. The
// full-content VerifyDigest must. This is exactly the corruption class
// -verify-digest exists for.
func TestVerifyDigestCatchesMidFileBitFlip(t *testing.T) {
	// ~300 KB of set data: 2000 sets of 100 consecutive elements each.
	const n, m, span = 4096, 2000, 100
	in := &setcover.Instance{N: n}
	for i := 0; i < m; i++ {
		start := (i * 37) % (n - span)
		elems := make([]setcover.Elem, span)
		for j := range elems {
			elems[j] = setcover.Elem(start + j)
		}
		in.Sets = append(in.Sets, setcover.Set{ID: i, Elems: elems})
	}
	path := filepath.Join(t.TempDir(), "big.scb")
	if err := WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	d, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !d.HasIndex() {
		t.Fatal("expected indexed file")
	}
	dataLen := d.indexOff - d.dataOff
	if dataLen <= 2*digestSampleLen+1024 {
		t.Fatalf("data section %d bytes is not larger than both samples; grow the instance", dataLen)
	}
	flipAt := d.dataOff + dataLen/2
	origSampled, err := d.Digest()
	if err != nil {
		t.Fatal(err)
	}
	origFull, err := d.VerifyDigest()
	if err != nil {
		t.Fatal(err)
	}
	d.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[flipAt] ^= 0x40 // flip one bit inside some element's varint bytes
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	flippedSampled, err := d2.Digest()
	if err != nil {
		t.Fatal(err)
	}
	flippedFull, err := d2.VerifyDigest()
	if err != nil {
		t.Fatal(err)
	}
	if flippedSampled != origSampled {
		t.Fatalf("sampled digest saw the mid-file flip — the gap this test pins has moved (flip offset %d)", flipAt)
	}
	if flippedFull == origFull {
		t.Fatal("VerifyDigest missed a mid-file bit flip")
	}
	if origFull == origSampled {
		t.Fatal("full and sampled digests collide (domain separation broken)")
	}
}

// Two indexed files that agree on dimensions and on every per-set (byteLen,
// cardinality) but differ in element VALUES must not collide: the indexed
// digest samples the data section, so an index-profile twin cannot alias a
// different family in a digest-keyed result cache.
func TestDigestBindsElementValues(t *testing.T) {
	mk := func(second setcover.Elem) *setcover.Instance {
		return &setcover.Instance{N: 4, Sets: []setcover.Set{
			{ID: 0, Elems: []setcover.Elem{0, second}}, // {0,1} and {0,2} encode to the same byteLen
			{ID: 1, Elems: []setcover.Elem{0, 1, 2, 3}},
		}}
	}
	var digs [2]string
	for i, e := range []setcover.Elem{1, 2} {
		var buf bytes.Buffer
		if err := Write(&buf, mk(e)); err != nil {
			t.Fatal(err)
		}
		d, err := NewRepo(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		if !d.HasIndex() {
			t.Fatal("expected indexed file")
		}
		if digs[i], err = d.Digest(); err != nil {
			t.Fatal(err)
		}
	}
	if digs[0] == digs[1] {
		t.Fatalf("index-profile twins share digest %s", digs[0])
	}
}
