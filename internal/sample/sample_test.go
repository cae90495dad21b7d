package sample

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
)

func TestSizeMonotonicity(t *testing.T) {
	base := Size(0.5, 0.01, 0.01, 100, 1)
	if base < 1 {
		t.Fatal("size must be >= 1")
	}
	if s := Size(0.25, 0.01, 0.01, 100, 1); s <= base {
		t.Fatalf("smaller eps should need more samples: %d vs %d", s, base)
	}
	if s := Size(0.5, 0.001, 0.01, 100, 1); s <= base {
		t.Fatalf("smaller p should need more samples: %d vs %d", s, base)
	}
	if s := Size(0.5, 0.01, 0.0001, 100, 1); s <= base {
		t.Fatalf("smaller q should need more samples: %d vs %d", s, base)
	}
	if s := Size(0.5, 0.01, 0.01, 10000, 1); s <= base {
		t.Fatalf("more ranges should need more samples: %d vs %d", s, base)
	}
}

func TestSizePanicsOnBadParams(t *testing.T) {
	for _, f := range []func(){
		func() { Size(0, 0.1, 0.1, 10, 1) },
		func() { Size(1, 0.1, 0.1, 10, 1) },
		func() { Size(0.5, 0, 0.1, 10, 1) },
		func() { Size(0.5, 0.1, 1.5, 10, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSizeFloorsAndClamps(t *testing.T) {
	// Tiny numRanges clamps to 2; a size below 1 floors to 1.
	if s := Size(0.99, 0.99, 0.99, 0, 1e-9); s != 1 {
		t.Fatalf("Size floor = %d, want 1", s)
	}
	// IterSampleSize floors small n, m to 2 and the result to 1.
	if s := IterSampleSize(1e-9, 1, 1, 1, 1, 0.5); s != 1 {
		t.Fatalf("IterSampleSize floor = %d, want 1", s)
	}
	if s := GeomSampleSize(1e-9, 1, 0, 1, 1, 0.5); s != 1 {
		t.Fatalf("GeomSampleSize floor = %d, want 1", s)
	}
}

func TestIterSampleSizeScaling(t *testing.T) {
	// |S| = c·ρ·k·n^δ·log m·log n: doubling k doubles the size;
	// larger δ increases it.
	s1 := IterSampleSize(1, 1, 10, 1024, 2048, 0.5)
	s2 := IterSampleSize(1, 1, 20, 1024, 2048, 0.5)
	if math.Abs(float64(s2)-2*float64(s1)) > 2 {
		t.Fatalf("doubling k: %d -> %d, want ~2x", s1, s2)
	}
	s3 := IterSampleSize(1, 1, 10, 1024, 2048, 0.75)
	if s3 <= s1 {
		t.Fatalf("larger delta should grow the sample: %d vs %d", s3, s1)
	}
	// n^0.5 for n=1024 is 32; check the formula directly.
	want := int(math.Ceil(1 * 1 * 10 * 32 * math.Log2(2048) * math.Log2(1024)))
	if s1 != want {
		t.Fatalf("IterSampleSize = %d, want %d", s1, want)
	}
}

func TestGeomSampleSizeUsesNKRatio(t *testing.T) {
	// (n/k)^δ: increasing k increases k·(n/k)^δ overall but sublinearly.
	s1 := GeomSampleSize(1, 1, 4, 4096, 100, 0.25)
	s2 := GeomSampleSize(1, 1, 8, 4096, 100, 0.25)
	if s2 <= s1 {
		t.Fatalf("larger k should grow geom sample: %d vs %d", s1, s2)
	}
	if s2 >= 2*s1 {
		t.Fatalf("geom sample should grow sublinearly in k at fixed n: %d vs %d", s1, s2)
	}
	if GeomSampleSize(1, 1, 0, 16, 16, 0.25) < 1 {
		t.Fatal("k=0 must still return >= 1")
	}
}

func TestUniformFromBitsetExactSize(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	from := bitset.New(100)
	for i := 0; i < 100; i += 2 {
		from.Set(i)
	}
	z := UniformFromBitset(rng, from, 10)
	if z.Count() != 10 {
		t.Fatalf("sample size = %d, want 10", z.Count())
	}
	if !z.SubsetOf(from) {
		t.Fatal("sample must be a subset of the source")
	}
}

func TestUniformFromBitsetOversample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	from := bitset.FromSlice(10, []int32{1, 2, 3})
	z := UniformFromBitset(rng, from, 50)
	if !z.Equal(from) {
		t.Fatal("oversampling should return the whole source")
	}
}

func TestUniformFromBitsetEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := UniformFromBitset(rng, bitset.New(10), 5)
	if !z.Empty() {
		t.Fatal("sampling from empty source must be empty")
	}
}

func TestUniformElems(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	es := UniformElems(rng, 50, 12)
	if len(es) != 12 {
		t.Fatalf("len = %d, want 12", len(es))
	}
	for i, e := range es {
		if e < 0 || e >= 50 {
			t.Fatalf("element %d out of range", e)
		}
		if i > 0 && es[i-1] >= e {
			t.Fatal("elements should be sorted unique")
		}
	}
}

// Sampling should be approximately uniform: each member appears with
// frequency ~ size/|from| over many trials.
func TestUniformityFrequency(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	from := bitset.New(20)
	from.Fill()
	counts := make([]int, 20)
	const trials = 4000
	for trial := 0; trial < trials; trial++ {
		z := UniformFromBitset(rng, from, 5)
		z.ForEach(func(i int) bool { counts[i]++; return true })
	}
	want := float64(trials) * 5 / 20 // 1000
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.15*want {
			t.Fatalf("element %d sampled %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestCheckRelativeApproxDetectsViolation(t *testing.T) {
	// V = [0,100), Z = [0,10): heavy range [0,50) is perfectly estimated by
	// Z? |r∩Z|/|Z| = 10/10 = 1 but |r|/|V| = 0.5 -> violation for small eps.
	v := bitset.New(100)
	v.Fill()
	z := bitset.New(100)
	for i := 0; i < 10; i++ {
		z.Set(i)
	}
	r := bitset.New(100)
	for i := 0; i < 50; i++ {
		r.Set(i)
	}
	if got := CheckRelativeApprox(v, z, []*bitset.Bitset{r}, 0.1, 0.1); got != 1 {
		t.Fatalf("violations = %d, want 1", got)
	}
	// A perfectly proportional sample has no violation.
	z2 := bitset.New(100)
	for i := 0; i < 100; i += 10 {
		z2.Set(i)
	}
	if got := CheckRelativeApprox(v, z2, []*bitset.Bitset{r}, 0.1, 0.1); got != 0 {
		t.Fatalf("violations = %d, want 0", got)
	}
}

func TestCheckRelativeApproxEmpty(t *testing.T) {
	v, z := bitset.New(10), bitset.New(10)
	if CheckRelativeApprox(v, z, nil, 0.5, 0.5) != 0 {
		t.Fatal("empty inputs should report 0 violations")
	}
}

// Property / statistical test of Lemma 2.5: with the bound's sample size
// (c=0.5, generous) a uniform sample is a relative (p, ε)-approximation for
// random range families in the vast majority of draws. This is the empirical
// backbone of iterSetCover's Lemma 2.6.
func TestLemma25Empirical(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	const (
		n         = 4000
		numRanges = 64
		p         = 0.05
		eps       = 0.5
		q         = 0.1
		trials    = 20
	)
	v := bitset.New(n)
	v.Fill()
	ranges := make([]*bitset.Bitset, numRanges)
	for i := range ranges {
		r := bitset.New(n)
		density := rng.Float64() * 0.3 // mix of light and heavy ranges
		for e := 0; e < n; e++ {
			if rng.Float64() < density {
				r.Set(e)
			}
		}
		ranges[i] = r
	}
	size := Size(eps, p, q, numRanges, 0.5)
	bad := 0
	for trial := 0; trial < trials; trial++ {
		z := UniformFromBitset(rng, v, size)
		if CheckRelativeApprox(v, z, ranges, p, eps) > 0 {
			bad++
		}
	}
	// Allow a couple of failures; the lemma promises failure prob <= q=0.1
	// per trial (and our c is a heuristic constant).
	if bad > trials/4 {
		t.Fatalf("relative approx failed in %d/%d trials (sample size %d)", bad, trials, size)
	}
}

// Property: samples never contain non-members and never exceed request size.
func TestPropSampleWellFormed(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		from := bitset.New(200)
		for i := 0; i < 200; i++ {
			if rng.Intn(3) == 0 {
				from.Set(i)
			}
		}
		size := int(sz % 64)
		z := UniformFromBitset(rng, from, size)
		if !z.SubsetOf(from) {
			return false
		}
		want := size
		if c := from.Count(); c < want {
			want = c
		}
		return z.Count() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Iterations is ⌈1/δ⌉ on (0, 1] up to the last count an int holds, and an
// error naming δ beyond it, for NaN and outside the interval.
func TestIterations(t *testing.T) {
	for _, c := range []struct {
		delta float64
		want  int
	}{{1, 1}, {0.5, 2}, {1.0 / 3.0, 3}, {0.3, 4}, {math.Ldexp(1, -62), 1 << 62}, {math.Nextafter(math.Ldexp(1, -63), 1), 1<<63 - 2048}} {
		if got, err := Iterations(c.delta); err != nil || got != c.want {
			t.Errorf("Iterations(%v) = %d, %v; want %d", c.delta, got, err, c.want)
		}
	}
	for _, d := range []float64{0, -1, 1.5, math.NaN(), math.Inf(1), math.Ldexp(1, -63), 1e-300, math.SmallestNonzeroFloat64} {
		if n, err := Iterations(d); err == nil {
			t.Errorf("Iterations(%v) = %d, want an error", d, n)
		}
	}
}
