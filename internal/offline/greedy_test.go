package offline

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/gen"
	"repro/internal/setcover"
)

// refGreedyPicks is the oracle for GreedyPicks' contract: plain
// density-level greedy, with one growing slice per level ⌊log₂(gain/w)⌋ for
// every cost and a rescan of the whole top level each round.
func refGreedyPicks(sets []setcover.Set, weights []float64, covered *bitset.Bitset, budget int) []Pick {
	if !slices.ContainsFunc(weights, func(w float64) bool { return w != 1 }) {
		weights = nil
	}
	// level is the exact ⌊log₂(g/w)⌋, the largest l with g ≥ w·2^l: with
	// g = fg·2^eg and w = fw·2^ew (mantissas in [½, 1)), g/w lies in
	// [2^(eg-ew), 2^(eg-ew+1)) exactly when fg ≥ fw.
	level := func(id int, g int32) int {
		if weights == nil {
			return bits.Len32(uint32(g)) - 1
		}
		fg, eg := math.Frexp(float64(g))
		fw, ew := math.Frexp(weights[id])
		if fg < fw {
			return eg - ew - 1
		}
		return eg - ew
	}
	gains := make([]int32, len(sets))
	// beats reports whether set a has a better ratio than set b. Unit
	// costs compare the integer gains themselves.
	beats := func(a, b int32) bool {
		if weights == nil {
			return gains[a] > gains[b] || gains[a] == gains[b] && a < b
		}
		x, y := float64(gains[a])*weights[b], float64(gains[b])*weights[a]
		return x > y || x == y && a < b
	}

	// The index holds only uncovered incidences: a decrement can only come
	// from an element a later pick covers. It is built in two passes, count
	// then fill, so it costs one int32 per incidence and nothing more. The
	// count pass leaves start[e] at the end of e's range and the fill pass
	// counts it back down, so index[start[e]:start[e+1]] lists the sets
	// holding e. From an empty cover every incidence is uncovered, and
	// both passes skip the membership test.
	n := covered.Len()
	start := make([]int32, n+1)
	fresh := covered.Empty()
	for id, s := range sets {
		if fresh {
			gains[id] = int32(len(s.Elems))
			for _, e := range s.Elems {
				start[e]++
			}
			continue
		}
		for _, e := range s.Elems {
			if !covered.Test(int(e)) {
				gains[id]++
				start[e]++
			}
		}
	}
	for e := 1; e <= n; e++ {
		start[e] += start[e-1]
	}
	index := make([]int32, start[n])
	for id, s := range sets {
		if gains[id] == 0 {
			continue
		}
		for _, e := range s.Elems {
			if fresh || !covered.Test(int(e)) {
				start[e]--
				index[start[e]] = int32(id)
			}
		}
	}

	// buckets[b] holds sets at level lo+b. A set's level bottoms out at
	// gain 1, so lo is the lowest level any set can reach.
	lo, hi := math.MaxInt, math.MinInt
	for id, g := range gains {
		if g > 0 {
			lo, hi = min(lo, level(id, 1)), max(hi, level(id, g))
		}
	}
	var buckets [][]int32
	if lo <= hi {
		buckets = make([][]int32, hi-lo+1)
	}
	for id, g := range gains {
		if g > 0 {
			b := level(id, g) - lo
			buckets[b] = append(buckets[b], int32(id))
		}
	}

	var picks []Pick
	top := len(buckets) - 1
	for len(picks) < budget {
		for top >= 0 && len(buckets[top]) == 0 {
			top--
		}
		if top < 0 {
			break // no set gains anything
		}
		// Drop dead sets (a picked set has gain 0), sink decayed ones, and
		// take the best ratio among the sets still at the top level.
		stay := buckets[top][:0]
		best := int32(-1)
		for _, id := range buckets[top] {
			g := gains[id]
			if g == 0 {
				continue
			}
			if b := level(int(id), g) - lo; b < top {
				buckets[b] = append(buckets[b], id)
				continue
			}
			stay = append(stay, id)
			if best < 0 || beats(id, best) {
				best = id
			}
		}
		buckets[top] = stay
		if best < 0 {
			continue // the bucket drained downward
		}
		newly := make([]setcover.Elem, 0, gains[best])
		for _, e := range sets[best].Elems {
			if !covered.Test(int(e)) {
				covered.Set(int(e))
				newly = append(newly, e)
			}
		}
		for _, e := range newly {
			for _, id := range index[start[e]:start[e+1]] {
				gains[id]--
			}
		}
		picks = append(picks, Pick{ID: int(best), Newly: newly})
	}
	return picks
}

// checkAgainstReference runs GreedyPicks and the reference on the same
// input, each from its own copy of covered, and fails unless the picks (IDs
// and Newly alike) and the covered bits afterwards are identical.
func checkAgainstReference(t *testing.T, label string, sets []setcover.Set, weights []float64, covered *bitset.Bitset, budget int) {
	t.Helper()
	gotCov, wantCov := covered.Clone(), covered.Clone()
	got := GreedyPicks(sets, weights, gotCov, budget)
	want := refGreedyPicks(sets, weights, wantCov, budget)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: picks differ from the reference\n got %v\nwant %v", label, pickIDs(got), pickIDs(want))
	}
	if !gotCov.Equal(wantCov) {
		t.Fatalf("%s: covered differs from the reference: %v, want %v", label, gotCov, wantCov)
	}
}

func pickIDs(picks []Pick) []int {
	ids := make([]int, len(picks))
	for i, p := range picks {
		ids[i] = p.ID
	}
	return ids
}

// costKinds are the weight vectors the reference tests draw: none, all ones
// (which must reduce to none), log-uniform costs, and small integers, whose
// ratios tie exactly and often.
var costKinds = []struct {
	name   string
	weight func(rng *rand.Rand) float64 // nil: no weight vector
}{
	{"unit", nil},
	{"ones", func(*rand.Rand) float64 { return 1 }},
	{"loguniform", func(rng *rand.Rand) float64 { return math.Exp(rng.Float64()*math.Log(400)) / 20 }},
	{"smallint", func(rng *rand.Rand) float64 { return float64(1 + rng.Intn(4)) }},
}

// The kernel's picks, their Newly lists and the covered bits afterwards
// equal the reference's for every cost kind, from an empty and a partly
// covered start, at a full and a short budget.
func TestGreedyPicksMatchesReference(t *testing.T) {
	for _, ck := range costKinds {
		for seed := int64(1); seed <= 150; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n, m := 1+rng.Intn(200), rng.Intn(300)
			sets := randomFamily(rng, n, m)
			var weights []float64
			if ck.weight != nil {
				weights = make([]float64, m)
				for i := range weights {
					weights[i] = ck.weight(rng)
				}
			}
			for _, partly := range []bool{false, true} {
				covered := bitset.New(n)
				if partly {
					covered = randomMask(rng, n, 1.0/3)
				}
				for _, budget := range []int{m, rng.Intn(m/4 + 2)} {
					label := fmt.Sprintf("%s/seed=%d/partly=%v/budget=%d", ck.name, seed, partly, budget)
					checkAgainstReference(t, label, sets, weights, covered, budget)
				}
			}
		}
	}
	// Float products can round ratios so that beats is not transitive:
	// among these three disjoint sets at one level, set 0 beats set 1, 1
	// beats 2 and 2 beats 0, so the first pick depends on the order in
	// which the level is walked.
	var cycle []setcover.Set
	e := setcover.Elem(0)
	for _, size := range []int{34, 15, 49} {
		var es []setcover.Elem
		for range size {
			es = append(es, e)
			e++
		}
		cycle = append(cycle, setcover.Set{Elems: es})
	}
	cycleW := []float64{0x1.3b34dec737a7ep+4, 0x1.161f97647c66fp+3, 0x1.c644aa7975db5p+4}
	checkAgainstReference(t, "rounded-tie cycle", cycle, cycleW, bitset.New(int(e)), len(cycle))

	// The batch-paper family at full size: greedy1's solve, unit and
	// log-uniform weighted.
	in, ws := plantedPaper(t)
	checkAgainstReference(t, "planted/unit", in.Sets, nil, bitset.New(in.N), len(in.Sets))
	checkAgainstReference(t, "planted/loguniform", in.Sets, ws, bitset.New(in.N), len(in.Sets))
}

func plantedPaper(tb testing.TB) (*setcover.Instance, []float64) {
	tb.Helper()
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 2000, M: 12000, K: 80, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	ws, err := gen.WeightedSlice(gen.WeightedConfig{Kind: gen.WeightLogUniform, M: len(in.Sets), Lo: 0.05, Hi: 20, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return in, ws
}

// decodeGreedyInput turns fuzz bytes into a kernel input: a universe of up
// to 64 elements, a cost mode, a budget, a starting cover, and sets each
// given by a header byte (size and cost) and its element bytes.
func decodeGreedyInput(data []byte) (sets []setcover.Set, weights []float64, covered *bitset.Bitset, budget int) {
	if len(data) < 4 {
		return nil, nil, bitset.New(0), 0
	}
	n, mode, budget := 1+int(data[0]%64), data[1]%4, int(data[2])
	covered = bitset.New(n)
	for i := range 8 {
		if data[3]>>i&1 == 1 {
			covered.Set(i * n / 8)
		}
	}
	in := &setcover.Instance{N: n}
	for rest := data[4:]; len(rest) > 0; {
		h := rest[0]
		size := min(int(h%16), len(rest)-1)
		es := make([]setcover.Elem, size)
		for j, b := range rest[1 : 1+size] {
			es[j] = setcover.Elem(int(b) % n)
		}
		rest = rest[1+size:]
		in.Sets = append(in.Sets, setcover.Set{Elems: es})
		c := float64(h >> 4) // 0..15
		switch mode {
		case 1:
			weights = append(weights, 1)
		case 2:
			weights = append(weights, 1+math.Mod(c, 4))
		case 3:
			weights = append(weights, math.Ldexp(1+c/16+float64(size)/256, int(h%7)-3))
		}
	}
	in.Normalize()
	if budget == 255 {
		budget = len(in.Sets)
	}
	return in.Sets, weights, covered, budget
}

// FuzzGreedyPicks holds the kernel to the reference on decoded inputs of
// every cost mode, starting cover and budget.
func FuzzGreedyPicks(f *testing.F) {
	f.Add([]byte{9, 0, 255, 0, 3, 0, 1, 2, 2, 2, 3, 1, 4, 3, 5, 6, 7})
	f.Add([]byte{20, 2, 255, 0x81, 0x13, 1, 2, 3, 0x22, 4, 5, 0x33, 1, 5, 9, 0x42, 0, 19})
	f.Add([]byte{63, 3, 4, 0, 0x5a, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0xa5, 10, 20, 30, 40, 50})
	f.Add([]byte{5, 1, 255, 0xff, 1, 0, 1, 1, 1, 2, 1, 3, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		sets, weights, covered, budget := decodeGreedyInput(data)
		checkAgainstReference(t, "fuzz", sets, weights, covered, budget)
	})
}

// Tied gains cost linear time: 50,000 singletons, picked in ID order, and
// a ring of 50,000 pairs {i, i+1 mod n}, whose greedy takes every even ID.
func TestGreedyPicksTieHeavy(t *testing.T) {
	const n = 50000
	singletons := make([]setcover.Set, n)
	ring := make([]setcover.Set, n)
	for i := range n {
		singletons[i].Elems = []setcover.Elem{setcover.Elem(i)}
		ring[i].Elems = []setcover.Elem{setcover.Elem(i), setcover.Elem((i + 1) % n)}
		slices.Sort(ring[i].Elems)
	}
	for _, c := range []struct {
		name  string
		sets  []setcover.Set
		picks int
		want  func(i int) int
	}{
		{"singletons", singletons, n, func(i int) int { return i }},
		{"ring", ring, n / 2, func(i int) int { return 2 * i }},
	} {
		covered := bitset.New(n)
		t0 := time.Now()
		picks := GreedyPicks(c.sets, nil, covered, len(c.sets))
		if el := time.Since(t0); el > 2*time.Second {
			t.Errorf("%s: %v, want under 2s", c.name, el)
		}
		if len(picks) != c.picks || covered.Count() != n {
			t.Errorf("%s: %d picks cover %d of %d elements, want %d picks", c.name, len(picks), covered.Count(), n, c.picks)
		}
		for i, p := range picks {
			if p.ID != c.want(i) {
				t.Fatalf("%s: pick %d is set %d, want %d", c.name, i, p.ID, c.want(i))
			}
		}
	}
}

// greedy1's solve on the batch-paper family, unit and weighted.
func BenchmarkGreedyPlanted(b *testing.B) {
	in, ws := plantedPaper(b)
	weighted := &setcover.Instance{N: in.N, Sets: in.Sets, Weights: ws}
	for _, c := range []struct {
		name string
		in   *setcover.Instance
	}{{"unit", in}, {"loguniform", weighted}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := (Greedy{}).Solve(c.in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
