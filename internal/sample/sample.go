// Package sample implements the sampling machinery of Section 2: uniform
// element sampling and the relative (p, ε)-approximation bound of Har-Peled
// and Sharir [HS11] as simplified by the paper's Lemma 2.5.
//
// Definition 2.4: Z ⊆ V is a relative (p, ε)-approximation for a set system
// (V, H) if for every range r ∈ H:
//
//	|r| >= p|V|  ⇒  (1-ε)|r|/|V| <= |r∩Z|/|Z| <= (1+ε)|r|/|V|
//	|r| <  p|V|  ⇒  |r|/|V| - εp <= |r∩Z|/|Z| <= |r|/|V| + εp
//
// Lemma 2.5: a uniform sample of size (c'/(ε²p))·(log|H|·log(1/p) + log(1/q))
// is a relative (p, ε)-approximation with probability ≥ 1-q.
package sample

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/setcover"
)

// Iterations returns ⌈1/δ⌉, the iteration count of iterSetCover (Figure
// 1.3) and algGeomSC (Figure 4.1), and is the one check of a δ parameter.
// It fails when δ is outside (0, 1], NaN included, and when ⌈1/δ⌉ does not
// fit an int (δ below about 1.1e-19), so a caller can refuse δ before its
// first pass.
func Iterations(delta float64) (int, error) {
	if !(delta > 0 && delta <= 1) {
		return 0, fmt.Errorf("delta %v out of (0,1]", delta)
	}
	// float64(math.MaxInt) rounds up to 2^63, the first count an int cannot hold.
	if it := math.Ceil(1 / delta); it < math.MaxInt {
		return int(it), nil
	}
	return 0, fmt.Errorf("delta %v too small: ⌈1/delta⌉ does not fit an int", delta)
}

// Size returns the Lemma 2.5 sample-size bound
// (c/(ε²p))·(log₂(numRanges)·log₂(1/p) + log₂(1/q)), rounded up, with a
// floor of 1. The caller chooses the constant c (the paper's c').
func Size(eps, p, q float64, numRanges int, c float64) int {
	if eps <= 0 || eps >= 1 || p <= 0 || p >= 1 || q <= 0 || q >= 1 {
		panic("sample: parameters must lie in (0,1)")
	}
	if numRanges < 2 {
		numRanges = 2
	}
	s := c / (eps * eps * p) * (math.Log2(float64(numRanges))*math.Log2(1/p) + math.Log2(1/q))
	if s < 1 {
		return 1
	}
	return int(math.Ceil(s))
}

// IterSampleSize returns the sample size used by iterSetCover (Figure 1.3):
// c·ρ·k·n^δ·log m·log n, capped below by 1. Logs are base 2 per the paper's
// convention ("all log are in base two").
func IterSampleSize(c, rho float64, k, n, m int, delta float64) int {
	if n < 2 {
		n = 2
	}
	if m < 2 {
		m = 2
	}
	s := c * rho * float64(k) * math.Pow(float64(n), delta) * math.Log2(float64(m)) * math.Log2(float64(n))
	if s < 1 {
		return 1
	}
	return int(math.Ceil(s))
}

// GeomSampleSize returns the sample size used by algGeomSC (Figure 4.1):
// c·ρ·k·(n/k)^δ·log m·log n.
func GeomSampleSize(c, rho float64, k, n, m int, delta float64) int {
	if n < 2 {
		n = 2
	}
	if m < 2 {
		m = 2
	}
	if k < 1 {
		k = 1
	}
	s := c * rho * float64(k) * math.Pow(float64(n)/float64(k), delta) * math.Log2(float64(m)) * math.Log2(float64(n))
	if s < 1 {
		return 1
	}
	return int(math.Ceil(s))
}

// UniformFromBitset draws a uniform sample without replacement of the given
// size from the members of from. If size >= |from|, every member is returned.
// The result is returned as a bitset over the same universe.
func UniformFromBitset(rng *rand.Rand, from *bitset.Bitset, size int) *bitset.Bitset {
	members := from.Slice()
	out := bitset.New(from.Len())
	if size >= len(members) {
		out.CopyFrom(from)
		return out
	}
	// Partial Fisher–Yates: after i swaps, members[:i] is a uniform sample.
	for i := 0; i < size; i++ {
		j := i + rng.Intn(len(members)-i)
		members[i], members[j] = members[j], members[i]
		out.Set(int(members[i]))
	}
	return out
}

// UniformElems draws a uniform sample without replacement of the given size
// from [0, n), returned sorted as element values.
func UniformElems(rng *rand.Rand, n, size int) []setcover.Elem {
	all := bitset.New(n)
	all.Fill()
	return UniformFromBitset(rng, all, size).Slice()
}

// CheckRelativeApprox verifies Definition 2.4 for a given ground set V
// (as a bitset over the universe), sample Z ⊆ V, and a collection of ranges
// (each a bitset over the same universe; only the part inside V counts).
// It returns the number of ranges that violate the definition.
func CheckRelativeApprox(v, z *bitset.Bitset, ranges []*bitset.Bitset, p, eps float64) int {
	nV := float64(v.Count())
	nZ := float64(z.Count())
	if nV == 0 || nZ == 0 {
		return 0
	}
	violations := 0
	for _, r := range ranges {
		rInV := float64(r.IntersectionCount(v))
		rInZ := float64(r.IntersectionCount(z))
		frac := rInV / nV
		est := rInZ / nZ
		if rInV >= p*nV {
			if est < (1-eps)*frac || est > (1+eps)*frac {
				violations++
			}
		} else {
			if est < frac-eps*p || est > frac+eps*p {
				violations++
			}
		}
	}
	return violations
}
