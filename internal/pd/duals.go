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
// repositories x_j then depends on r_j alone and xSeq tabulates it, so
// math.Exp runs once per count the table holds instead of once per
// recompute, and the rounds need no x at all (raiseCounts).
type duals struct {
	eps, lnFactor, d float64
	weightOf         func(int) float64 // nil = unweighted, every c_j = 1

	x []float64 // the fractional primal
	r []int     // raise count per set: Y_j = ySeq[r_j]

	ySeq []float64        // ySeq[k] = ε+…+ε (k terms), grown on demand
	xSeq []float64        // unweighted x at count k, filled densely by fill
	far  map[int32]farSum // Y of sets raised maxTable times or more

	step    []int32 // a_j during gallop: active elements containing set j; zero otherwise
	mark    []uint8 // 1 = set raised in the current round of raiseBatch
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
	}
}

// raiseCounts runs one batch's dual rounds and returns what raiseBatch
// would: the rounds that raised anything and whether the batch converged
// within roundCap+1 of them, with every count and x_j of the batch's sets
// bit for bit as raiseBatch leaves them. Every list in inc is nonempty
// (BatchedPrimalDual fails an element in no set before its rounds).
//
// On unweighted repositories, while every count of the batch is below
// maxTable, x_j is xSeq[r_j]. A round is then a check that sums xSeq at the
// counts over each active element's sets in their order, the float sum
// raiseBatch takes over x, followed by a raise of r_j by one for every kept
// element containing j. No x is kept during the rounds; sync writes it when
// the batch ends. Weighted batches, and batches holding a count of maxTable
// or more, run raiseBatch instead. A batch whose counts reach maxTable
// writes x and hands its remaining rounds to raiseBatch, which continues
// the far sums one ε at a time.
//
// A check that keeps every active element is followed by gallop, and the
// rounds it proves to keep them all as well are raised in one step.
func (du *duals) raiseCounts(inc [][]int32, roundCap int) (int, bool) {
	if du.weightOf != nil {
		return du.raiseBatch(inc, roundCap)
	}
	r := du.r
	hi := 0 // the largest count among the batch's sets
	for _, sets := range inc {
		for _, j := range sets {
			hi = max(hi, r[j])
		}
	}
	if hi >= maxTable {
		return du.raiseBatch(inc, roundCap)
	}
	if du.step == nil {
		du.step = make([]int32, len(r))
	}
	du.active = du.active[:0]
	for i := range inc {
		du.active = append(du.active, int32(i))
	}
	active := du.active
	rounds := 0
	for round := 0; ; round++ {
		if round > roundCap {
			du.sync(inc)
			return rounds, false
		}
		du.fill(hi)
		xs := du.xSeq
		keep := active[:0]
		for _, e := range active {
			cov := 0.0
			for _, j := range inc[e] {
				cov += xs[r[j]]
			}
			if cov < 1 {
				keep = append(keep, e)
			}
		}
		stable := len(keep) == len(active)
		active = keep
		if len(active) == 0 {
			du.sync(inc)
			return rounds, true
		}
		skip := 0
		if stable {
			skip = du.gallop(inc, active, hi, roundCap-round)
		}
		for _, e := range active {
			for _, j := range inc[e] {
				r[j] += skip + 1
				hi = max(hi, r[j])
			}
		}
		round += skip
		rounds += skip + 1
		if hi >= maxTable {
			du.sync(inc)
			more, ok := du.raiseBatch(inc, roundCap-rounds)
			return rounds + more, ok
		}
	}
}

// gallop returns how many rounds after the current one provably keep every
// active element, given that the current check kept them all at counts r
// whose largest is hi. While no element leaves, every round raises set j by
// the same a_j, the number of active elements containing it, so the check
// u rounds on reads counts r + u·a. Coverage never falls as counts grow
// (see raiseBatch), so if every element is below 1 at r + u·a, every one
// was below 1 at each earlier check too. The u for which that holds are a
// prefix, and gallop finds its end by doubling and then bisection. Each
// probe is an exact coverage sum at the probed counts and stops at the
// first element that reaches 1. u stays within capLeft, the rounds left
// before the cap, and within the tables: hi + u·max_j a_j < maxTable.
func (du *duals) gallop(inc [][]int32, active []int32, hi, capLeft int) int {
	r, step := du.r, du.step
	var top int32
	for _, e := range active {
		for _, j := range inc[e] {
			step[j]++
			top = max(top, step[j])
		}
	}
	a := int(top)
	below := func(u int) bool {
		du.fill(hi + u*a)
		xs := du.xSeq
		for _, e := range active {
			cov := 0.0
			for _, j := range inc[e] {
				cov += xs[r[j]+u*int(step[j])]
			}
			if cov >= 1 {
				return false
			}
		}
		return true
	}
	good, bad := 0, min(capLeft, (maxTable-1-hi)/a)+1
	for u := 1; u < bad; u *= 2 {
		if !below(u) {
			bad = u
			break
		}
		good = u
	}
	for bad-good > 1 {
		if mid := good + (bad-good)/2; below(mid) {
			good = mid
		} else {
			bad = mid
		}
	}
	for _, e := range active {
		for _, j := range inc[e] {
			step[j] = 0
		}
	}
	return good
}

// fill extends xSeq densely through count k < maxTable, so that a check
// reads it at any count up to k without a test.
func (du *duals) fill(k int) {
	for i := len(du.xSeq); i <= k; i++ {
		du.xSeq = append(du.xSeq, du.xAt(1, du.y(0, i))) // below maxTable y ignores the set
	}
}

// sync writes x_j from its count for every set of the batch.
func (du *duals) sync(inc [][]int32) {
	for _, sets := range inc {
		for _, j := range sets {
			du.x[j] = du.recompute(j)
		}
	}
}

// raiseBatch is the general dual-round loop: the weighted path, the path of
// counts past the tables, and the oracle raiseCounts is tested against.
// Each round raises y_e by ε for every batch element whose coverage sum is
// below 1 (one count on each set containing it), then recomputes x_j once
// for every set it raised. It returns the rounds that raised anything and
// whether the batch converged within roundCap+1 of them.
//
// An element whose sum reached 1 leaves the active list for the rest of the
// batch: counts only grow, and ySeq, the product with ln(1+d)/c_j, math.Exp,
// −1, /d and a fixed-order float sum are each nondecreasing, so its sum
// stays at or above 1 and the plain loop would never raise it again.
func (du *duals) raiseBatch(inc [][]int32, roundCap int) (int, bool) {
	if du.mark == nil {
		du.mark = make([]uint8, len(du.r))
		du.touched = make([]int32, len(du.r)+1)
	}
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
	du.fill(k)
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
