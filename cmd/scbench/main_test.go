package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/scdisk"
)

func report(calib int64, cases ...BenchCase) *BenchReport {
	return &BenchReport{Version: 1, CalibNs: calib, Cases: cases}
}

// TestCompareInjectedSlowdown is the acceptance gate for the CI bench stage:
// a 2x slowdown in the measured code paths MUST be flagged, even though the
// calibration workload (untouched by the injected change) stayed put.
func TestCompareInjectedSlowdown(t *testing.T) {
	base := report(100,
		BenchCase{Name: "scan/uniform/readat/w1", NsPerPass: 1000},
		BenchCase{Name: "solve/greedy1/uniform/readat", NsPerPass: 4000},
	)
	cur := report(100,
		BenchCase{Name: "scan/uniform/readat/w1", NsPerPass: 2000},
		BenchCase{Name: "solve/greedy1/uniform/readat", NsPerPass: 8000},
	)
	regs := compareReports(base, cur, 0.15)
	if len(regs) != 2 {
		t.Fatalf("2x slowdown: got %d regressions, want 2: %v", len(regs), regs)
	}
	for _, r := range regs {
		if !strings.Contains(r, "x2.00") {
			t.Errorf("regression message lacks ratio: %q", r)
		}
	}
}

// TestCompareCalibrationAbsorbsSlowMachine: a uniformly slower machine moves
// the calibration workload by the same factor as the cases, so nothing is
// flagged — the tolerance applies to the calibrated ratio, not raw time.
func TestCompareCalibrationAbsorbsSlowMachine(t *testing.T) {
	base := report(100, BenchCase{Name: "scan/uniform/readat/w1", NsPerPass: 1000})
	cur := report(200, BenchCase{Name: "scan/uniform/readat/w1", NsPerPass: 2100}) // 2.1x raw, 1.05x calibrated
	if regs := compareReports(base, cur, 0.15); len(regs) != 0 {
		t.Fatalf("slow machine flagged: %v", regs)
	}
	// But a genuine regression on top of the slow machine still shows.
	cur.Cases[0].NsPerPass = 2500 // 1.25x calibrated
	if regs := compareReports(base, cur, 0.15); len(regs) != 1 {
		t.Fatalf("calibrated regression missed: %v", regs)
	}
}

func TestCompareToleranceBoundary(t *testing.T) {
	base := report(100, BenchCase{Name: "c", NsPerPass: 1000})
	if regs := compareReports(base, report(100, BenchCase{Name: "c", NsPerPass: 1150}), 0.15); len(regs) != 0 {
		t.Fatalf("within-tolerance run flagged: %v", regs)
	}
	if regs := compareReports(base, report(100, BenchCase{Name: "c", NsPerPass: 1160}), 0.15); len(regs) != 1 {
		t.Fatalf("beyond-tolerance run not flagged: %v", regs)
	}
}

// TestCompareMissingCase: a case that silently disappears from the matrix is
// a regression, not a pass.
func TestCompareMissingCase(t *testing.T) {
	base := report(100,
		BenchCase{Name: "scan/uniform/readat/w1", NsPerPass: 1000},
		BenchCase{Name: "scan/skewed/mmap/w2", NsPerPass: 1000},
	)
	cur := report(100, BenchCase{Name: "scan/uniform/readat/w1", NsPerPass: 1000})
	regs := compareReports(base, cur, 0.15)
	if len(regs) != 1 || !strings.Contains(regs[0], "missing") {
		t.Fatalf("missing case not flagged: %v", regs)
	}
}

func TestCompareZeroCalibFallsBackToRaw(t *testing.T) {
	base := report(0, BenchCase{Name: "c", NsPerPass: 1000})
	if regs := compareReports(base, report(0, BenchCase{Name: "c", NsPerPass: 1100}), 0.15); len(regs) != 0 {
		t.Fatalf("raw-scale comparison flagged within tolerance: %v", regs)
	}
}

// TestMeasureSmoke runs the real measurement path over a tiny family: both
// backends, scan and solve, checking the invariants the harness itself
// enforces (full stream scanned, stable results across runs, positive bytes).
func TestMeasureSmoke(t *testing.T) {
	// LightSize is generous relative to N so the random family covers the
	// universe (the solve case needs a feasible instance).
	genSet, err := gen.SkewedFunc(gen.SkewedConfig{N: 100, M: 200, HeavyID: 7, LightSize: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path, err := writeFamily(t.TempDir(), "smoke", 100, 200, genSet)
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range []struct {
		name string
		opts []scdisk.OpenOption
	}{{"readat", nil}, {"mmap", []scdisk.OpenOption{scdisk.ReadOnlyMmap()}}} {
		d, err := scdisk.Open(path, be.opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2} {
			bc, err := measureScan("scan/smoke/"+be.name, d, w, 2)
			if err != nil {
				t.Fatal(err)
			}
			if bc.Sets != 200 || bc.Bytes <= 0 || bc.NsPerPass <= 0 || bc.MBPerSec <= 0 {
				t.Fatalf("%s w=%d: implausible case %+v", be.name, w, bc)
			}
			if segmented := w > 1; bc.Segmented != segmented || (bc.Chunks > 0) != segmented || (!segmented && bc.WaitMs != 0) {
				t.Fatalf("%s w=%d: traced segmented=%v chunks=%d wait=%vms", be.name, w, bc.Segmented, bc.Chunks, bc.WaitMs)
			}
		}
		for _, algo := range []string{"greedy1", "pd", "iter"} {
			bc, err := measureSolve("solve/smoke/"+be.name, d, 2, algo)
			if err != nil {
				t.Fatal(err)
			}
			if bc.NsPerPass <= 0 || bc.Passes < 1 {
				t.Fatalf("%s: implausible solve case %+v", be.name, bc)
			}
		}
		d.Close()
	}
}

// TestRunCompareExitCodes drives the CLI end to end: a run compared against
// its own report (slack tolerance) exits 0; compared against a doctored
// baseline claiming everything used to be 100x faster — indistinguishable
// from an injected 100x slowdown — it exits 1; compared against a baseline
// recorded on a machine with another CPU count it exits 2 before running
// the matrix.
func TestRunCompareExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick matrix three times")
	}
	dir := t.TempDir()
	out := dir + "/bench.json"
	if code := run([]string{"-quick", "-runs", "1", "-out", out}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("bench run exited %d", code)
	}
	if code := run([]string{"-quick", "-runs", "1", "-compare", out, "-tolerance", "5"}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("self-compare with slack tolerance exited %d", code)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep BenchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	for i := range rep.Cases {
		rep.Cases[i].NsPerPass /= 100
		if rep.Cases[i].NsPerPass == 0 {
			rep.Cases[i].NsPerPass = 1
		}
	}
	doctored := dir + "/doctored.json"
	draw, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(doctored, draw, 0o644); err != nil {
		t.Fatal(err)
	}
	var errBuf strings.Builder
	if code := run([]string{"-quick", "-runs", "1", "-compare", doctored}, io.Discard, &errBuf); code != 1 {
		t.Fatalf("compare vs doctored baseline exited %d, want 1\n%s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "REGRESSION") {
		t.Fatalf("no REGRESSION lines in stderr:\n%s", errBuf.String())
	}

	rep.CPUs++
	if draw, err = json.Marshal(&rep); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(doctored, draw, 0o644); err != nil {
		t.Fatal(err)
	}
	errBuf.Reset()
	if code := run([]string{"-quick", "-runs", "1", "-compare", doctored}, io.Discard, &errBuf); code != 2 {
		t.Fatalf("compare vs baseline from another CPU count exited %d, want 2\n%s", code, errBuf.String())
	}
	if msg := errBuf.String(); !strings.Contains(msg, "cpus=") || strings.Contains(msg, "scan/") {
		t.Fatalf("want a cpus refusal before any case runs, got:\n%s", msg)
	}
}
