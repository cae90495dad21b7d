package baseline

import (
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// decodeSkipInput decodes a fuzz input into an unweighted family with
// n ≤ 64 and m ≤ 512, a batch size of 1–8 (the chunk size, in sets, of a
// segmented pass over a generator) and ε. Byte 0 gives n, byte 1 the batch
// size, byte 2 ε; each set is then a size byte k followed by k mod (n+1)
// element bytes, each taken mod n. Small universes and small sets make tied
// gains common.
func decodeSkipInput(data []byte) (*setcover.Instance, int, float64) {
	var hdr [3]byte
	copy(hdr[:], data)
	in := &setcover.Instance{N: 1 + int(hdr[0])%64}
	batch, eps := 1+int(hdr[1])%8, float64(hdr[2]%4)/8
	for rest := data[min(len(data), 3):]; len(rest) > 0 && len(in.Sets) < 512; {
		k := min(int(rest[0])%(in.N+1), len(rest)-1)
		var s setcover.Set
		for _, b := range rest[1 : 1+k] {
			s.Elems = append(s.Elems, setcover.Elem(int(b)%in.N))
		}
		in.Sets, rest = append(in.Sets, s), rest[1+k:]
	}
	in.Normalize()
	return in, batch, eps
}

// encodeSkipInput is decodeSkipInput's inverse for families with n ≤ 64.
func encodeSkipInput(in *setcover.Instance, batch int, epsEighths byte) []byte {
	data := []byte{byte(in.N - 1), byte(batch - 1), epsEighths}
	for _, s := range in.Sets {
		data = append(data, byte(len(s.Elems)))
		for _, e := range s.Elems {
			data = append(data, byte(e))
		}
	}
	return data
}

// skipSeeds are FuzzGreedySkipMatchesFullDelivery's seed families: the
// byte-skewed family scaled down, sets all of one size, and a family whose
// next pick lies before the previous pick once the best gain drops.
func skipSeeds(tb testing.TB) [][]byte {
	skewed, err := gen.SkewedFunc(gen.SkewedConfig{N: 64, M: 512, HeavyID: 512 / 3, LightSize: 4, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	sk := &setcover.Instance{N: 64}
	for id := 0; id < 512; id++ {
		sk.Sets = append(sk.Sets, skewed(id))
	}
	// Set i is 5 consecutive elements from 7i mod 60: equal gains until
	// they overlap a pick.
	same := &setcover.Instance{N: 60}
	for i := 0; i < 200; i++ {
		s := setcover.Set{}
		for e := range 5 {
			s.Elems = append(s.Elems, setcover.Elem((7*i+e)%60))
		}
		same.Sets = append(same.Sets, s)
	}
	// Each block of four sets ends in its biggest set, so passes pick the
	// blocks' big sets in stream order; once they are gone the best gain
	// drops and the next pick lies before the previous one.
	drop := &setcover.Instance{N: 64}
	for b := 0; b < 8; b++ {
		base := 8 * b
		drop.Sets = append(drop.Sets,
			setcover.Set{Elems: []setcover.Elem{setcover.Elem(base)}},
			setcover.Set{Elems: []setcover.Elem{setcover.Elem(base + 1), setcover.Elem(base + 2)}},
			setcover.Set{},
			setcover.Set{Elems: []setcover.Elem{setcover.Elem(base + 3), setcover.Elem(base + 4), setcover.Elem(base + 5)}})
	}
	for _, in := range []*setcover.Instance{sk, same, drop} {
		in.Normalize()
	}
	return [][]byte{
		encodeSkipInput(sk, 4, 0), encodeSkipInput(sk, 7, 1),
		encodeSkipInput(same, 2, 0), encodeSkipInput(same, 5, 2),
		encodeSkipInput(drop, 2, 0), encodeSkipInput(drop, 3, 0), encodeSkipInput(drop, 4, 1),
	}
}

// FuzzGreedySkipMatchesFullDelivery holds greedyn's range bound to full
// delivery. A generator's VerifySegment reports false, so every chunk the
// observer can skip is decoded and dropped undelivered, and the bound is
// exercised without checksums. Segmented solves at Workers 2 and 3, with
// chunks of the input's batch size, must report the Workers 1 solve's
// cover, passes, space words and error, for ε = 0 and the input's ε; and
// the Workers 1 cover must be the full-scan reference's.
func FuzzGreedySkipMatchesFullDelivery(f *testing.F) {
	for _, seed := range skipSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, batch, eps := decodeSkipInput(data)
		repo := stream.NewFuncRepo(in.N, len(in.Sets), func(id int) setcover.Set {
			return setcover.Set{ID: id, Elems: slices.Clone(in.Sets[id].Elems)}
		})
		for _, e := range []float64{0, eps} {
			want, werr := MultiPassGreedyPartial(repo, e, engine.Options{Workers: 1, BatchSize: batch})
			ref, rerr := refMultiPassGreedy(repo, e, engine.New(engine.Options{Workers: 1}))
			if werr != rerr || !slices.Equal(want.Cover, ref) {
				t.Fatalf("eps=%v: Workers 1 picked %v (err %v), full scan %v (err %v)", e, want.Cover, werr, ref, rerr)
			}
			for _, workers := range []int{2, 3} {
				got, gerr := MultiPassGreedyPartial(repo, e, engine.Options{Workers: workers, BatchSize: batch})
				if !slices.Equal(got.Cover, want.Cover) || got.Passes != want.Passes ||
					got.SpaceWords != want.SpaceWords || gerr != werr {
					t.Fatalf("eps=%v workers=%d batch=%d: picked %v in %d passes, %d words, err %v; Workers 1 picked %v in %d passes, %d words, err %v",
						e, workers, batch, got.Cover, got.Passes, got.SpaceWords, gerr,
						want.Cover, want.Passes, want.SpaceWords, werr)
				}
			}
		}
	})
}
