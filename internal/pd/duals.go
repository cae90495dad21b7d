package pd

import "math"

// maxTable bounds the memo tables: raise counts below it share ySeq (and,
// unweighted, xSeq); a set raised further carries its own running sum in
// duals.far, so a tiny ε cannot grow the tables past 2·maxTable words.
const maxTable = 1 << 16

// duals is the dual-raise state of one solve. Every Y_j starts at 0 and only
// grows by += ε, so Y_j is ε added to itself r_j times: the state is the
// raise count r_j, and ySeq[k] — the k-fold sum, built by the same repeated
// addition — turns a count back into the identical float. On unweighted
// repositories x_j then depends on r_j alone and xSeq memoizes it, so
// math.Exp runs once per distinct count instead of once per recompute.
type duals struct {
	eps, lnFactor, d float64
	weightOf         func(int) float64 // nil = unweighted, every c_j = 1

	x []float64 // the fractional primal
	r []int     // raise count per set: Y_j = ySeq[r_j]

	ySeq []float64        // ySeq[k] = ε+…+ε (k terms), grown on demand
	xSeq []float64        // unweighted x at count k; -1 until first needed
	far  map[int32]farSum // Y of sets raised maxTable times or more

	mark    []uint8 // 1 = set raised in the current round
	touched []int32 // the sets marked, in first-raise order; m+1 slots, as a raise writes one past the last
	active  []int32 // batch elements still undercovered
}

// farSum is a set's running dual sum past the tables: y = ySeq[k] as the
// plain loop would have added it.
type farSum struct {
	k int
	y float64
}

// stallSum returns y_s, the value at which the repeated sum y += ε stops
// growing: the smallest power of two whose ulp is at least 2ε, that is
// 2^(53+⌈log₂ε⌉). Every binade below it has an ulp under 2ε, so each add
// there moves the sum up by at least one ulp and never past the next power
// of two; at y_s the add rounds back (a tie keeps y_s's even mantissa). It
// is +Inf when that power of two is beyond the float range.
func stallSum(eps float64) float64 {
	frac, exp := math.Frexp(eps) // eps = frac·2^exp, frac ∈ [½, 1)
	if frac == 0.5 {
		exp-- // eps is the power of two 2^(exp-1)
	}
	return math.Ldexp(1, exp+53)
}

func newDuals(m int, eps float64, weightOf func(int) float64) *duals {
	d := float64(m)
	return &duals{
		eps:      eps,
		lnFactor: math.Log(1 + d),
		d:        d,
		weightOf: weightOf,
		x:        make([]float64, m),
		r:        make([]int, m),
		ySeq:     []float64{0},
		mark:     make([]uint8, m),
		touched:  make([]int32, m+1),
	}
}

// raiseBatch runs one batch's dual rounds over its incidence lists: each
// round raises y_e by ε for every batch element whose coverage sum is below
// 1 (one count on each set containing it), then recomputes x_j once for
// every set it raised. It returns the rounds that raised anything and
// whether the batch converged within roundCap+1 of them.
//
// An element whose sum reached 1 leaves the active list for the rest of the
// batch: counts only grow, and ySeq, the product with ln(1+d)/c_j, math.Exp,
// −1, /d and a fixed-order float sum are each nondecreasing, so its sum
// stays at or above 1 and the plain loop would never raise it again.
func (du *duals) raiseBatch(inc [][]int32, roundCap int) (int, bool) {
	du.active = du.active[:0]
	for i := range inc {
		du.active = append(du.active, int32(i))
	}
	active := du.active
	x, r, mark, touched := du.x, du.r, du.mark, du.touched
	rounds := 0
	for round := 0; ; round++ {
		if round > roundCap {
			return rounds, false
		}
		nt := 0
		keep := active[:0]
		for _, e := range active {
			sets := inc[e]
			cov := 0.0
			for _, j := range sets {
				cov += x[j]
			}
			if cov < 1 {
				keep = append(keep, e)
				// Branch-free dedup: every set is written to the next
				// slot, which only advances on its first raise this round.
				for _, j := range sets {
					r[j]++
					touched[nt] = j
					nt += int(mark[j] ^ 1)
					mark[j] = 1
				}
			}
		}
		active = keep
		if nt == 0 {
			return rounds, true
		}
		rounds++
		for _, j := range touched[:nt] {
			mark[j] = 0
			x[j] = du.recompute(j)
		}
	}
}

// recompute returns x_j = ((1+d)^(Y_j/c_j) − 1)/d at set j's current count,
// evaluated as the expression (exp(ln(1+d)/c_j·Y_j) − 1)/d.
func (du *duals) recompute(j int32) float64 {
	k := du.r[j]
	if du.weightOf != nil {
		return du.xAt(du.weightOf(int(j)), du.y(j, k))
	}
	if k >= maxTable {
		return du.xAt(1, du.y(j, k))
	}
	for len(du.xSeq) <= k {
		du.xSeq = append(du.xSeq, -1)
	}
	if du.xSeq[k] < 0 {
		du.xSeq[k] = du.xAt(1, du.y(j, k))
	}
	return du.xSeq[k]
}

func (du *duals) xAt(c, y float64) float64 {
	return (math.Exp(du.lnFactor/c*y) - 1) / du.d
}

// y returns Y_j for set j raised k times: ySeq[k] while k fits the table,
// otherwise the set's own running sum, continued from the table's last
// entry one ε at a time — the plain loop's additions, in its order.
func (du *duals) y(j int32, k int) float64 {
	if k < maxTable {
		for len(du.ySeq) <= k {
			du.ySeq = append(du.ySeq, du.ySeq[len(du.ySeq)-1]+du.eps)
		}
		return du.ySeq[k]
	}
	f, ok := du.far[j]
	if !ok {
		f = farSum{k: maxTable - 1, y: du.y(j, maxTable-1)}
	}
	for ; f.k < k; f.k++ {
		f.y += du.eps
	}
	if du.far == nil {
		du.far = make(map[int32]farSum)
	}
	du.far[j] = f
	return f.y
}
