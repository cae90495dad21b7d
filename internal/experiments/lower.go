package experiments

import (
	"math"
	"math/rand"
	"repro/internal/engine"

	"repro/internal/comm"
	"repro/internal/offline"
)

// E6RecoverBits reproduces the Section 3 / Theorem 3.8 mechanism: the
// algRecoverBit decoder (Figure 3.1) reconstructs Alice's m·n random bits
// through a disjointness oracle, which is why a single-pass randomized
// streaming algorithm with a better-than-3/2 approximation needs Ω(mn) bits
// of state.
func E6RecoverBits(seed int64, quick bool, _ engine.Options) Table {
	configs := [][2]int{{4, 24}, {6, 32}, {8, 40}}
	if quick {
		configs = [][2]int{{3, 16}, {4, 24}}
	}
	t := Table{
		ID:    "E6",
		Title: "Theorem 3.8 mechanism: algRecoverBit decodes Alice's family",
		Head:  []string{"m", "n", "bits to decode (mn)", "recovered exactly", "probes", "oracle calls"},
	}
	for _, cfg := range configs {
		m, n := cfg[0], cfg[1]
		rng := rand.New(rand.NewSource(seed))
		fam := comm.RandomFamily(m, n, rng)
		if !fam.IsIntersecting() {
			t.AddRow(d(m), d(n), d(m*n), "skipped (rare non-intersecting draw)", "-", "-")
			continue
		}
		tr := &comm.Transcript{}
		oracle := comm.NewDisjointnessOracle(fam, tr)
		res := comm.RecoverBits(oracle, n, m, comm.RecoverConfig{
			QuerySize: int(math.Ceil(math.Log2(float64(m)))) + 2,
			MaxProbes: 80000 * m,
			Seed:      seed + 1,
		})
		t.AddRow(d(m), d(n), d(m*n), ok(comm.MatchesFamily(res.Recovered, fam)),
			d(res.Probes), d64(res.OracleCalls))
	}
	t.AddNote("naive one-round protocol transmits exactly mn bits (Theorem 3.1: optimal)")
	t.AddNote("exact reconstruction ⇒ the message must carry Ω(mn) bits of information")
	return t
}

// E7ISCReduction machine-checks the Section 5 reduction (Lemmas 5.5–5.7 /
// Corollary 5.8): over random Intersection Set Chasing instances, the
// reduced SetCover instance has optimum (2p+1)n+1 exactly when the ISC
// output is 1. It also reports the Observation 5.9 accounting that turns a
// streaming algorithm into a communication protocol.
func E7ISCReduction(seed int64, quick bool, _ engine.Options) Table {
	draws := 16
	if quick {
		draws = 6
	}
	t := Table{
		ID:    "E7",
		Title: "Theorem 5.4 mechanism: ISC → SetCover reduction (exactness check)",
		Head:  []string{"n", "p", "elements", "sets", "tight OPT", "ISC=1 draws", "ISC=0 draws", "iff holds"},
	}
	configs := [][2]int{{3, 2}, {4, 2}, {5, 2}, {4, 3}}
	if quick {
		configs = [][2]int{{3, 2}, {4, 2}}
	}
	for _, cfg := range configs {
		n, p := cfg[0], cfg[1]
		yes, no := 0, 0
		okAll := true
		var elems, sets, tight int
		for i := 0; i < draws; i++ {
			rng := rand.New(rand.NewSource(seed + int64(i*977)))
			isc := comm.RandomISC(n, p, 0.8+rng.Float64(), rng)
			inst, meta := comm.BuildSetCover(isc)
			elems, sets, tight = inst.N, inst.M(), meta.TightOpt
			opt, err := offline.OptSize(inst)
			if err != nil {
				okAll = false
				continue
			}
			direct := isc.Output()
			if direct {
				yes++
				if opt != meta.TightOpt {
					okAll = false
				}
			} else {
				no++
				if opt <= meta.TightOpt {
					okAll = false
				}
			}
		}
		t.AddRow(d(n), d(p), d(elems), d(sets), d(tight), d(yes), d(no), ok(okAll))
	}
	t.AddNote("Observation 5.9: an ℓ-pass s-word streaming algorithm gives an ℓ-round protocol with s·64·ℓ² bits")
	t.AddNote("[GO13]: ISC(n,p) needs Ω(n^{1+1/(2p)}/poly) bits ⇒ exact (1/2δ−1)-pass streaming needs Ω̃(m·n^δ) space")
	return t
}

// E8SparseLB reproduces the Section 6 construction: overlaying t Equal
// Limited Pointer Chasing instances yields SetCover instances whose sets
// have size Õ(t) — the s-sparse regime of Theorem 6.6 — while the embedded
// equalities survive the overlay.
func E8SparseLB(seed int64, quick bool, _ engine.Options) Table {
	n, p := 128, 2
	ts := []int{2, 4, 8}
	if quick {
		n = 64
		ts = []int{2, 4}
	}
	t := Table{
		ID:    "E8",
		Title: "Theorem 6.6 mechanism: sparse instances from OR^t overlay",
		Head:  []string{"t", "r (=log n)", "elements", "sets", "max set size", "Õ(t) bound (r·t+3)", "planted eq. survives"},
	}
	r := int(math.Ceil(math.Log2(float64(n))))
	for _, tt := range ts {
		rng := rand.New(rand.NewSource(seed))
		or := comm.RandomORt(n, p, tt, r, rng)
		or.PlantEquality(0)
		isc := comm.OverlayToISC(or, rng)
		inst, _ := comm.BuildSetCover(isc)
		maxPre := 1
		for _, in := range or.Instances {
			for _, f := range in.Left.Funcs {
				if mp := f.MaxPreimage(); mp > maxPre {
					maxPre = mp
				}
			}
			for _, f := range in.Right.Funcs {
				if mp := f.MaxPreimage(); mp > maxPre {
					maxPre = mp
				}
			}
		}
		bound := maxPre*tt + 3
		t.AddRow(d(tt), d(r), d(inst.N), d(inst.M()), d(inst.MaxSetSize()), d(bound), ok(isc.Output()))
	}
	t.AddNote("n=%d p=%d; set sizes Õ(t) ≪ n make the instance s-sparse: Ω̃(tn) communication ⇒ Ω̃(ms) space", n, p)
	return t
}
