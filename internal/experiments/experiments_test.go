package experiments

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
)

// Every experiment must build (quick mode) and produce a well-formed table.
func TestAllExperimentsQuick(t *testing.T) {
	tables := All(1, true, engine.Options{})
	if len(tables) != 19 {
		t.Fatalf("expected 19 experiments, got %d", len(tables))
	}
	seen := map[string]bool{}
	for _, tbl := range tables {
		if tbl.ID == "" || tbl.Title == "" {
			t.Fatalf("table missing ID/title: %+v", tbl)
		}
		if seen[tbl.ID] {
			t.Fatalf("duplicate experiment ID %s", tbl.ID)
		}
		seen[tbl.ID] = true
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s: no rows", tbl.ID)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Head) {
				t.Fatalf("%s: row width %d != header width %d", tbl.ID, len(row), len(tbl.Head))
			}
		}
	}
}

// E1 must produce valid covers for every algorithm.
func TestE1AllValid(t *testing.T) {
	tbl := E1Figure11(3, true, engine.Options{})
	validCol := len(tbl.Head) - 1
	for _, row := range tbl.Rows {
		if row[validCol] != "yes" {
			t.Fatalf("algorithm %q did not produce a valid cover: %v", row[0], row)
		}
	}
}

// E7's iff column must be "yes" — the reduction is exact.
func TestE7IffHolds(t *testing.T) {
	tbl := E7ISCReduction(5, true, engine.Options{})
	iffCol := len(tbl.Head) - 1
	for _, row := range tbl.Rows {
		if row[iffCol] != "yes" {
			t.Fatalf("reduction iff failed: %v", row)
		}
	}
}

// E6 must fully recover the family at quick sizes.
func TestE6Recovers(t *testing.T) {
	tbl := E6RecoverBits(7, true, engine.Options{})
	for _, row := range tbl.Rows {
		if row[3] != "yes" && !strings.Contains(row[3], "skipped") {
			t.Fatalf("recovery failed: %v", row)
		}
	}
}

// E18's headline: the space/input ratio must fall as n grows.
func TestE18RatioFalls(t *testing.T) {
	tbl := E18Scaling(2, true, engine.Options{})
	if len(tbl.Rows) < 2 {
		t.Fatal("need at least two sizes")
	}
	var prev float64 = 2
	for _, row := range tbl.Rows {
		var ratio float64
		if _, err := fmtSscan(row[4], &ratio); err != nil {
			t.Fatalf("bad ratio cell %q", row[4])
		}
		if ratio >= prev {
			t.Fatalf("space/input ratio not falling: %v", tbl.Rows)
		}
		prev = ratio
	}
}

// E18's shape (Theorem 2.8): iterSetCover's space is Õ(m·n^δ), n^{1+δ} at
// m = 2n, times the guesses of k that share every pass (Lemma 2.1), k = 1,
// 2, 4, …, 2^⌈log₂ n⌉, so G(n) = ⌈log₂ n⌉+1 of them. Between consecutive
// rows the slope log₂(space ratio)/log₂(n ratio) is then at most 1+δ plus
// log₂(G′/G)/log₂(n ratio): about 1.47 from n = 512 to 1024 and 1.44 from
// 4096 to 8192. Quick and full configurations.
func TestE18SpaceSlopeWithinGuessFactor(t *testing.T) {
	const delta = 1.0 / 3.0
	guesses := func(n float64) float64 { return math.Ceil(math.Log2(n)) + 1 }
	for _, quick := range []bool{true, false} {
		tbl := E18Scaling(1, quick, engine.Options{})
		if len(tbl.Rows) < 2 {
			t.Fatalf("quick=%v: E18 has %d rows, want at least 2", quick, len(tbl.Rows))
		}
		for i := 1; i < len(tbl.Rows); i++ {
			prev, row := tbl.Rows[i-1], tbl.Rows[i]
			n0, n1 := cell(t, tbl, prev, "n"), cell(t, tbl, row, "n")
			nRatio := math.Log2(n1 / n0)
			slope := math.Log2(cell(t, tbl, row, "space(words)")/cell(t, tbl, prev, "space(words)")) / nRatio
			bound := 1 + delta + math.Log2(guesses(n1)/guesses(n0))/nRatio
			if slope > bound {
				t.Errorf("quick=%v: n = %v → %v: space slope %.3f, want at most 1+δ+log₂(G′/G) = %.3f", quick, n0, n1, slope, bound)
			}
		}
	}
}

// E2's claims (Theorem 2.8): iterSetCover makes at most 2·⌈1/δ⌉ passes,
// the stored projections are part of the space charged, and space falls as
// δ falls.
func TestE2PassesAndSpaceTradeOff(t *testing.T) {
	tbl := E2DeltaSweep(1, true, engine.Options{})
	deltas := []float64{1, 0.5, 1.0 / 3.0, 0.25}
	if len(tbl.Rows) != len(deltas) {
		t.Fatalf("E2 has %d rows, want one per δ in %v", len(tbl.Rows), deltas)
	}
	prevSpace := math.Inf(1)
	for i, row := range tbl.Rows {
		if row[0] != f2c(deltas[i]) {
			t.Fatalf("row %d is δ=%s, want %s", i, row[0], f2c(deltas[i]))
		}
		var passes, space, proj float64
		for j, v := range []*float64{&passes, &space, &proj} {
			if _, err := fmtSscan(row[1+j], v); err != nil {
				t.Fatalf("δ=%s: bad cell %q in %v", row[0], row[1+j], row)
			}
		}
		if maxPasses := 2 * math.Ceil(1/deltas[i]); passes > maxPasses {
			t.Errorf("δ=%s: %v passes, want ≤ %v", row[0], passes, maxPasses)
		}
		if proj > space {
			t.Errorf("δ=%s: proj space %v exceeds total space %v", row[0], proj, space)
		}
		if space >= prevSpace {
			t.Errorf("δ=%s: space %v does not fall below %v", row[0], space, prevSpace)
		}
		prevSpace = space
	}
}

// E9's claim (Lemma 2.3's Size Test): storing heavy sets instead of taking
// them raises both the projection space and the total space.
func TestE9SizeTestSavesSpace(t *testing.T) {
	tbl := E9AblationSizeTest(1, true, engine.Options{})
	if len(tbl.Rows) != 2 {
		t.Fatalf("E9 has %d rows, want with and without the Size Test", len(tbl.Rows))
	}
	var cells [2][2]float64 // [variant][proj, total]
	for i, row := range tbl.Rows {
		for j := range cells[i] {
			if _, err := fmtSscan(row[1+j], &cells[i][j]); err != nil {
				t.Fatalf("%s: bad cell %q in %v", row[0], row[1+j], row)
			}
		}
	}
	with, without := cells[0], cells[1]
	if without[0] <= with[0] || without[1] <= with[1] {
		t.Fatalf("without the Size Test (proj %v, total %v) must exceed with it (proj %v, total %v)",
			without[0], without[1], with[0], with[1])
	}
}

// E19's claim: dedicated reveal spends one gather pass per batch of
// 2^{d−1} elements plus the verification pass, ⌈n/2^{d−1}⌉ + 1, while
// trivial reveal pays n + 1 — so for every (vcdim, weights) pair dedicated
// takes fewer passes than trivial. Quick and full configurations both.
func TestE19DedicatedRevealSavesPasses(t *testing.T) {
	for _, quick := range []bool{true, false} {
		tbl := E19PrimalDual(1, quick, engine.Options{})
		col := map[string]int{}
		for i, h := range tbl.Head {
			col[h] = i
		}
		num := func(row []string, name string) int {
			v, err := strconv.Atoi(row[col[name]])
			if err != nil {
				t.Fatalf("quick=%v: bad %s cell in %v", quick, name, row)
			}
			return v
		}
		passes := map[string]map[string]int{} // "vcdim/weights" → mode → passes
		for _, row := range tbl.Rows {
			d, n, got := num(row, "vcdim"), num(row, "n"), num(row, "passes")
			mode := row[col["mode"]]
			want := n + 1
			if mode == "dedicated" {
				batch := 1 << (d - 1)
				want = (n+batch-1)/batch + 1
			}
			if got != want {
				t.Errorf("quick=%v %v: %d passes, want %d", quick, row, got, want)
			}
			key := row[col["vcdim"]] + "/" + row[col["weights"]]
			if passes[key] == nil {
				passes[key] = map[string]int{}
			}
			passes[key][mode] = got
		}
		for key, byMode := range passes {
			ded, okD := byMode["dedicated"]
			triv, okT := byMode["trivial"]
			if !okD || !okT || ded >= triv {
				t.Errorf("quick=%v %s: dedicated %d passes vs trivial %d (present %v/%v), want fewer", quick, key, ded, triv, okD, okT)
			}
		}
		if want := map[bool]int{true: 2, false: 4}[quick]; len(passes) != want {
			t.Errorf("quick=%v: %d (vcdim, weights) pairs, want %d", quick, len(passes), want)
		}
	}
}

func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%f", v)
}

func TestRenderAndMarkdown(t *testing.T) {
	tbl := Table{ID: "X", Title: "demo", Head: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.AddNote("note %d", 42)

	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== X — demo ==", "a", "bb", "note: note 42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render output missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	tbl.Markdown(&buf)
	md := buf.String()
	for _, want := range []string{"### X — demo", "| a | bb |", "| --- | --- |", "| 1 | 2 |", "*note 42*"} {
		if !strings.Contains(md, want) {
			t.Fatalf("Markdown output missing %q:\n%s", want, md)
		}
	}
}

func TestRunAll(t *testing.T) {
	var buf bytes.Buffer
	RunAll(&buf, 1, true, false, engine.Options{})
	if !strings.Contains(buf.String(), "E12") {
		t.Fatal("RunAll did not render all experiments")
	}
}

// Per-call engine options must leave tables byte-identical (the engine's
// determinism contract is what makes -workers a pure wall-clock knob).
// The deprecated experiments.SetEngine process-wide shim was removed along
// with baseline.SetEngine (DESIGN §5 has the removal note); a build with
// zero options uses the engine defaults, which the last comparison pins.
func TestPerCallEngineOptions(t *testing.T) {
	same := func(a, b Table) {
		t.Helper()
		if len(a.Rows) != len(b.Rows) {
			t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
		}
		for i := range a.Rows {
			for j := range a.Rows[i] {
				if a.Rows[i][j] != b.Rows[i][j] {
					t.Fatalf("cell [%d][%d] differs: %q vs %q", i, j, a.Rows[i][j], b.Rows[i][j])
				}
			}
		}
	}
	ref := E16MaxKCover(3, true, engine.Options{Workers: 1})
	same(ref, E16MaxKCover(3, true, engine.Options{Workers: 2, BatchSize: 64}))
	same(ref, E16MaxKCover(3, true, engine.Options{Workers: 2, DisableSegmented: true}))
	same(ref, E16MaxKCover(3, true, engine.Options{})) // zero options: engine defaults
}

// cell parses the number in row's column named col of tbl.
func cell(t *testing.T, tbl Table, row []string, col string) float64 {
	t.Helper()
	for i, h := range tbl.Head {
		if h == col {
			var v float64
			if _, err := fmtSscan(row[i], &v); err != nil {
				t.Fatalf("%s: bad %s cell %q in %v", tbl.ID, col, row[i], row)
			}
			return v
		}
	}
	t.Fatalf("%s: no column %q in %v", tbl.ID, col, tbl.Head)
	return 0
}

// E11's claim (the ρ/δ factor of Theorem 2.8): the exact offline solver
// (ρ = 1) inside iterSetCover returns a cover no larger than greedy's
// (ρ = ln n), at the same number of passes. Quick and full configurations.
func TestE11ExactNoLargerThanGreedy(t *testing.T) {
	for _, quick := range []bool{true, false} {
		tbl := E11AblationOffline(1, quick, engine.Options{})
		if len(tbl.Rows) != 2 || tbl.Rows[0][0] != "greedy" || tbl.Rows[1][0] != "exact" {
			t.Fatalf("quick=%v: E11 rows %v, want greedy then exact", quick, tbl.Rows)
		}
		greedy, exact := tbl.Rows[0], tbl.Rows[1]
		if c, g := cell(t, tbl, exact, "cover"), cell(t, tbl, greedy, "cover"); c > g {
			t.Errorf("quick=%v: exact cover %v larger than greedy's %v", quick, c, g)
		}
		if p, g := cell(t, tbl, exact, "passes"), cell(t, tbl, greedy, "passes"); p != g {
			t.Errorf("quick=%v: exact takes %v passes, greedy %v", quick, p, g)
		}
	}
}

// E13's claim (ε-Partial Set Cover): every algorithm at every ε covers at
// least a 1-ε fraction of U. The table prints coverage to two decimals, and
// every 1-ε of the sweep has two decimals, so a row that meets 1-ε prints
// at least 1-ε. Quick and full configurations.
func TestE13CoverageAtLeastOneMinusEps(t *testing.T) {
	for _, quick := range []bool{true, false} {
		tbl := E13PartialCover(1, quick, engine.Options{})
		if len(tbl.Rows) != 9 {
			t.Fatalf("quick=%v: E13 has %d rows, want 3 algorithms × 3 ε", quick, len(tbl.Rows))
		}
		for _, row := range tbl.Rows {
			eps, cov := cell(t, tbl, row, "eps"), cell(t, tbl, row, "coverage")
			if cov < 1-eps {
				t.Errorf("quick=%v %v: coverage %v below 1-ε = %v", quick, row, cov, 1-eps)
			}
		}
	}
}

// E16's claim (the [SG09] primitive's guarantee): one-pass streaming
// max-k-cover at k = OPT covers at least a quarter of the planted universe,
// in one pass. Quick and full configurations.
func TestE16StreamingCoversQuarter(t *testing.T) {
	for _, quick := range []bool{true, false} {
		tbl := E16MaxKCover(1, quick, engine.Options{})
		var n int
		if len(tbl.Notes) == 0 {
			t.Fatalf("quick=%v: E16 has no instance note", quick)
		}
		if _, err := fmt.Sscanf(tbl.Notes[0], "planted instance: n=%d", &n); err != nil {
			t.Fatalf("quick=%v: note %q: %v", quick, tbl.Notes[0], err)
		}
		found := false
		for _, row := range tbl.Rows {
			if row[0] != "one-pass streaming max-k-cover" {
				continue
			}
			found = true
			if covered := cell(t, tbl, row, "covered / cover"); covered < float64(n)/4 {
				t.Errorf("quick=%v: streaming max-k-cover covers %v of n = %d, want ≥ n/4", quick, covered, n)
			}
			if p := cell(t, tbl, row, "passes"); p != 1 {
				t.Errorf("quick=%v: streaming max-k-cover took %v passes, want 1", quick, p)
			}
		}
		if !found {
			t.Fatalf("quick=%v: E16 has no streaming max-k-cover row: %v", quick, tbl.Rows)
		}
	}
}

// E3's claim (Figure 1.2): on every row the canonical pieces are exactly the
// n points and take 2n words, while the raw projections are the n²/4
// rectangles, one word each. Quick and full configurations.
func TestE3CanonicalLinearRawQuadratic(t *testing.T) {
	for _, quick := range []bool{true, false} {
		tbl := E3Figure12(quick)
		if len(tbl.Rows) == 0 {
			t.Fatalf("quick=%v: E3 has no rows", quick)
		}
		for _, row := range tbl.Rows {
			n := cell(t, tbl, row, "n")
			rects := cell(t, tbl, row, "rectangles (n²/4)")
			if rects != n*n/4 || cell(t, tbl, row, "raw proj words") != rects {
				t.Errorf("quick=%v: row %v: want rectangles = raw projection words = n²/4", quick, row)
			}
			if cell(t, tbl, row, "canonical pieces") != n || cell(t, tbl, row, "canonical words") != 2*n {
				t.Errorf("quick=%v: row %v: want canonical pieces = n and canonical words = 2n", quick, row)
			}
		}
	}
}

// E14's claim (Lemma 4.2): canonical splitting stores fewer pieces at its
// peak and fewer words than raw projections, with the same cover and the
// same passes. Quick and full configurations.
func TestE14CanonicalStoresLess(t *testing.T) {
	for _, quick := range []bool{true, false} {
		tbl := E14CanonicalAblation(1, quick, engine.Options{})
		rows := map[string][]string{}
		for _, row := range tbl.Rows {
			rows[row[0]] = row
		}
		canon, raw := rows["canonical split (Lemma 4.2)"], rows["raw projections"]
		if canon == nil || raw == nil {
			t.Fatalf("quick=%v: E14 lacks a canonical or raw row: %v", quick, tbl.Rows)
		}
		for _, col := range []string{"pieces stored (peak)", "space(words)"} {
			if c, r := cell(t, tbl, canon, col), cell(t, tbl, raw, col); c >= r {
				t.Errorf("quick=%v: canonical %s %v, raw %v: want fewer", quick, col, c, r)
			}
		}
		for _, col := range []string{"cover", "passes"} {
			if c, r := cell(t, tbl, canon, col), cell(t, tbl, raw, col); c != r {
				t.Errorf("quick=%v: canonical %s %v, raw %v: want equal", quick, col, c, r)
			}
		}
	}
}

// E15's claim (Observation 5.9): a p-pass algorithm over a stream split
// among the players is a protocol whose message crosses between players
// passes × players times, each crossing carrying the algorithm's memory —
// so on every row protocol bits = crossings × space × 64. Quick and full
// configurations.
func TestE15ProtocolBitsIdentity(t *testing.T) {
	for _, quick := range []bool{true, false} {
		tbl := E15ProtocolSimulation(1, quick, engine.Options{})
		if len(tbl.Rows) == 0 {
			t.Fatalf("quick=%v: E15 has no rows", quick)
		}
		for _, row := range tbl.Rows {
			crossings := cell(t, tbl, row, "crossings")
			if crossings != cell(t, tbl, row, "passes")*cell(t, tbl, row, "players") {
				t.Errorf("quick=%v: row %v: want crossings = passes × players", quick, row)
			}
			if cell(t, tbl, row, "protocol bits") != crossings*cell(t, tbl, row, "space(w)")*64 {
				t.Errorf("quick=%v: row %v: want protocol bits = crossings × space × 64", quick, row)
			}
		}
	}
}

// E10's claim (Lemma 2.6 against plain element sampling): the relative
// (p, ε)-approximation sample shrinks the universe by n^δ per iteration, so
// iterSetCover finishes in fewer passes than with the plain k·log n sample.
// Quick and full configurations.
func TestE10RelativeSampleSavesPasses(t *testing.T) {
	for _, quick := range []bool{true, false} {
		tbl := E10AblationSampling(1, quick, engine.Options{})
		rows := map[string][]string{}
		for _, row := range tbl.Rows {
			rows[row[0]] = row
		}
		rel, plain := rows["relative-approx (k·n^δ)"], rows["plain tiny (k·log n)"]
		if rel == nil || plain == nil {
			t.Fatalf("quick=%v: E10 lacks a relative-approx or plain row: %v", quick, tbl.Rows)
		}
		if r, p := cell(t, tbl, rel, "passes"), cell(t, tbl, plain, "passes"); r >= p {
			t.Errorf("quick=%v: relative-approx sample takes %v passes, plain %v: want fewer", quick, r, p)
		}
	}
}

// E12's claim (Lemma 2.5): at the bound's sample size with c ≥ 0.25, no
// trial draws a sample that violates Definition 2.4, well under the target
// rate q. Quick and full configurations.
func TestE12NoViolationAtBound(t *testing.T) {
	for _, quick := range []bool{true, false} {
		tbl := E12RelativeApprox(1, quick, engine.Options{})
		checked := 0
		for _, row := range tbl.Rows {
			if cell(t, tbl, row, "c (constant)") < 0.25 {
				continue
			}
			checked++
			if bad := cell(t, tbl, row, "trials with violation"); bad != 0 {
				t.Errorf("quick=%v: row %v: %v trials with a violation, want 0", quick, row, bad)
			}
		}
		if checked == 0 {
			t.Fatalf("quick=%v: E12 has no row with c ≥ 0.25: %v", quick, tbl.Rows)
		}
	}
}

// E17's claims (the traps of Figure 1.1): ER14 returns √n sets on its trap
// and one-pass greedy exceeds OPT on the halving trap, while iterSetCover
// returns an optimal cover on both. Quick and full configurations.
func TestE17TrapsBiteOnePassOnly(t *testing.T) {
	for _, quick := range []bool{true, false} {
		tbl := E17Tightness(1, quick, engine.Options{})
		if len(tbl.Rows) != 4 {
			t.Fatalf("quick=%v: E17 has %d rows, want 4", quick, len(tbl.Rows))
		}
		for _, row := range tbl.Rows {
			var trap string
			var n int
			if _, err := fmt.Sscanf(row[0], "%s n=%d", &trap, &n); err != nil {
				t.Fatalf("quick=%v: instance %q: %v", quick, row[0], err)
			}
			cover, opt := cell(t, tbl, row, "cover"), cell(t, tbl, row, "OPT")
			switch algo := row[1]; {
			case strings.HasPrefix(algo, "iterSetCover"):
				if cover != opt {
					t.Errorf("quick=%v: %s: cover %v, want OPT = %v", quick, row[:2], cover, opt)
				}
			case algo == "emek-rosen[ER14]":
				if want := math.Sqrt(float64(n)); trap != "er-trap" || cover != want {
					t.Errorf("quick=%v: %s: cover %v, want √n = %v on the er-trap", quick, row[:2], cover, want)
				}
			case algo == "greedy-1pass":
				if trap != "greedy-trap" || cover <= opt {
					t.Errorf("quick=%v: %s: cover %v, want above OPT = %v on the greedy-trap", quick, row[:2], cover, opt)
				}
			default:
				t.Errorf("quick=%v: unexpected E17 row %v", quick, row)
			}
		}
	}
}

// E1's pass counts, on the rows of Figure 1.1 whose pass bound is exact:
// greedy-1pass and ER14 take one pass, CW16 takes its p, iterSetCover at
// most 2/δ, and greedy-npass one pass per picked set, so its passes are its
// cover size ratio·OPT, with OPT from the table's note. Quick and full
// configurations.
func TestE1PassesAtTheirBounds(t *testing.T) {
	for _, quick := range []bool{true, false} {
		tbl := E1Figure11(1, quick, engine.Options{})
		var opt float64
		if i := strings.Index(tbl.Notes[0], "OPT="); i < 0 {
			t.Fatalf("quick=%v: E1's note %q gives no OPT", quick, tbl.Notes[0])
		} else if _, err := fmt.Sscanf(tbl.Notes[0][i:], "OPT=%g", &opt); err != nil {
			t.Fatalf("quick=%v: E1's note %q: %v", quick, tbl.Notes[0], err)
		}
		checked := 0
		for _, row := range tbl.Rows {
			passes := cell(t, tbl, row, "passes")
			var p, inv float64
			switch algo := row[0]; {
			case algo == "greedy-1pass", algo == "emek-rosen[ER14]":
				checked++
				if passes != 1 {
					t.Errorf("quick=%v: %s takes %v passes, want 1", quick, algo, passes)
				}
			case strings.HasPrefix(algo, "chakrabarti-wirth[CW16]"):
				checked++
				if _, err := fmt.Sscanf(algo, "chakrabarti-wirth[CW16] p=%g", &p); err != nil || passes != p {
					t.Errorf("quick=%v: %s takes %v passes, want p", quick, algo, passes)
				}
			case algo == "iterSetCover":
				checked++
				i := strings.Index(row[1], "δ=1/")
				if i < 0 {
					t.Fatalf("quick=%v: iterSetCover bound %q gives no δ", quick, row[1])
				}
				if _, err := fmt.Sscanf(row[1][i:], "δ=1/%g", &inv); err != nil || passes > 2*inv {
					t.Errorf("quick=%v: iterSetCover at %s takes %v passes, want at most 2/δ", quick, row[1][i:], passes)
				}
			case algo == "greedy-npass":
				checked++
				// The ratio cell is cover/OPT to two decimals.
				if ratio := cell(t, tbl, row, "ratio"); math.Abs(passes-ratio*opt) > 0.005*opt {
					t.Errorf("quick=%v: greedy-npass takes %v passes, want its cover size %v·%v", quick, passes, ratio, opt)
				}
			}
		}
		if checked != 6 {
			t.Errorf("quick=%v: checked %d rows of E1, want 6: %v", quick, checked, tbl.Rows)
		}
	}
}

// E4's claim (Theorem 4.6): algGeomSC's space stays near flat in m. For each
// shape class, doubling m grows the space by less than 1.5×, where flat is
// 1× and linear 2×, and by less than it grows the raw projections. The
// quick configuration only; CI's diff of full.txt pins the full table.
func TestE4SpaceNearFlatInM(t *testing.T) {
	tbl := E4Geometric(1, true, engine.Options{})
	type point struct{ m, space, raw float64 }
	classes := map[string][]point{}
	for _, row := range tbl.Rows {
		classes[row[0]] = append(classes[row[0]],
			point{cell(t, tbl, row, "m"), cell(t, tbl, row, "space(words)"), cell(t, tbl, row, "raw projs")})
	}
	if len(classes) != 3 {
		t.Fatalf("E4 has %d shape classes, want 3: %v", len(classes), tbl.Rows)
	}
	for class, pts := range classes {
		if len(pts) != 2 || pts[1].m != 2*pts[0].m {
			t.Fatalf("%s: want rows at m and 2m, got %v", class, pts)
		}
		space, raw := pts[1].space/pts[0].space, pts[1].raw/pts[0].raw
		if space >= 1.5 || space >= raw {
			t.Errorf("%s: doubling m grows space %.2f×, raw projections %.2f×; want space under 1.5× and under raw", class, space, raw)
		}
	}
}

// E5's claim (Lemma 4.4): the distinct canonical pieces of w-shallow shapes
// number at most linearly many in w per point, the Clarkson–Shor shape. For
// each class, pieces/n grows by less than 4× = 32/8 from w = 8 to w = 32.
// The quick configuration only; CI's diff of full.txt pins the full table.
func TestE5PiecesAtMostLinearInW(t *testing.T) {
	tbl := E5CanonicalCounts(1, true, engine.Options{})
	perPoint := map[string]map[float64]float64{}
	for _, row := range tbl.Rows {
		if perPoint[row[0]] == nil {
			perPoint[row[0]] = map[float64]float64{}
		}
		perPoint[row[0]][cell(t, tbl, row, "w")] = cell(t, tbl, row, "pieces/n")
	}
	if len(perPoint) != 3 {
		t.Fatalf("E5 has %d shape classes, want 3: %v", len(perPoint), tbl.Rows)
	}
	for class, byW := range perPoint {
		lo, hi := byW[8], byW[32]
		if lo <= 0 || hi <= 0 {
			t.Fatalf("%s: no pieces/n at w = 8 and w = 32: %v", class, byW)
		}
		if hi/lo >= 4 {
			t.Errorf("%s: pieces/n grows %.2f× from w = 8 to w = 32, want under 4×", class, hi/lo)
		}
	}
}

// E8's claims (Theorem 6.6): on every row the largest set is within the Õ(t)
// bound the table prints, and the planted equality survives the overlay.
// Quick and full configurations.
func TestE8SetsWithinBoundEqualitySurvives(t *testing.T) {
	for _, quick := range []bool{true, false} {
		tbl := E8SparseLB(1, quick, engine.Options{})
		survivesCol := slices.Index(tbl.Head, "planted eq. survives")
		if len(tbl.Rows) == 0 || survivesCol < 0 {
			t.Fatalf("quick=%v: E8 has no rows or no survival column: %v", quick, tbl.Head)
		}
		for _, row := range tbl.Rows {
			if size, bound := cell(t, tbl, row, "max set size"), cell(t, tbl, row, "Õ(t) bound (r·t+3)"); size > bound {
				t.Errorf("quick=%v: row %v: max set size %v above the bound %v", quick, row, size, bound)
			}
			if survives := row[survivesCol]; survives != "yes" {
				t.Errorf("quick=%v: row %v: planted equality survives %q, want yes", quick, row, survives)
			}
		}
	}
}
