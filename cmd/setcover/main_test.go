package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	ssc "repro"
	"repro/internal/algos"
)

// genFile writes a planted instance to dir in the indexed SCB1 format and
// returns its path plus the instance for ground truth.
func genFile(t *testing.T, dir string) (string, *ssc.Instance) {
	t.Helper()
	in, _, _, err := ssc.Planted(ssc.PlantedConfig{N: 300, M: 650, K: 15, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "planted.scb")
	if err := ssc.WriteInstanceFile(path, in); err != nil {
		t.Fatal(err)
	}
	return path, in
}

// End to end: generate → write binary → solve from disk → the reported cover
// is verified (exit 0) and the summary is printed, for every algorithm of
// the table.
func TestSolveFromDiskEndToEnd(t *testing.T) {
	path, _ := genFile(t, t.TempDir())
	for _, algo := range algos.Names() {
		var out, errb bytes.Buffer
		code := run([]string{"-algo", algo, "-format", "disk", "-in", path}, strings.NewReader(""), &out, &errb)
		if code != 0 {
			t.Fatalf("%s: exit %d\nstdout: %s\nstderr: %s", algo, code, out.String(), errb.String())
		}
		s := out.String()
		if !strings.Contains(s, "valid=true") {
			t.Fatalf("%s: cover not verified:\n%s", algo, s)
		}
		if !strings.Contains(s, "instance:    n=300 m=650") {
			t.Fatalf("%s: wrong dims:\n%s", algo, s)
		}
	}
}

// The same instance solved from disk and from memory must report the same
// cover line (the algorithms are deterministic given the seed and stream).
func TestDiskMatchesBinaryInMemory(t *testing.T) {
	dir := t.TempDir()
	path, _ := genFile(t, dir)
	var fromDisk, fromMem bytes.Buffer
	if code := run([]string{"-algo", "iter", "-seed", "7", "-format", "disk", "-in", path, "-print-cover"},
		strings.NewReader(""), &fromDisk, &bytes.Buffer{}); code != 0 {
		t.Fatalf("disk run failed:\n%s", fromDisk.String())
	}
	if code := run([]string{"-algo", "iter", "-seed", "7", "-format", "binary", "-in", path, "-print-cover"},
		strings.NewReader(""), &fromMem, &bytes.Buffer{}); code != 0 {
		t.Fatalf("binary run failed:\n%s", fromMem.String())
	}
	if fromDisk.String() != fromMem.String() {
		t.Fatalf("disk vs in-memory output differs:\n--- disk\n%s--- memory\n%s", fromDisk.String(), fromMem.String())
	}
}

// -mmap is purely a backend switch: the solve output must be byte-identical
// to the positional-read run of the same file and seed.
func TestDiskMmapMatchesReadAt(t *testing.T) {
	path, _ := genFile(t, t.TempDir())
	var readat, mapped bytes.Buffer
	if code := run([]string{"-algo", "iter", "-seed", "7", "-format", "disk", "-in", path, "-print-cover"},
		strings.NewReader(""), &readat, &bytes.Buffer{}); code != 0 {
		t.Fatalf("readat run failed:\n%s", readat.String())
	}
	if code := run([]string{"-algo", "iter", "-seed", "7", "-format", "disk", "-mmap", "-in", path, "-print-cover"},
		strings.NewReader(""), &mapped, &bytes.Buffer{}); code != 0 {
		t.Fatalf("mmap run failed:\n%s", mapped.String())
	}
	if readat.String() != mapped.String() {
		t.Fatalf("mmap vs readat output differs:\n--- readat\n%s--- mmap\n%s", readat.String(), mapped.String())
	}
}

// Text input over stdin still works (the seed's original main path).
func TestSolveFromStdinText(t *testing.T) {
	in, _, _, err := ssc.Planted(ssc.PlantedConfig{N: 100, M: 220, K: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	if err := ssc.WriteInstance(&txt, in); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code := run([]string{"-algo", "greedy1"}, bytes.NewReader(txt.Bytes()), &out, &bytes.Buffer{})
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "valid=true") {
		t.Fatalf("cover not verified:\n%s", out.String())
	}
}

// A truncated SCB1 file must fail the whole command (exit 2 with the decode
// error on stderr), for every algorithm — never print a valid-looking
// summary from the prefix that still decodes.
func TestDiskModeTruncatedFileFails(t *testing.T) {
	dir := t.TempDir()
	full, _ := genFile(t, dir)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.scb")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, algo := range algos.Names() {
		var out, errb bytes.Buffer
		code := run([]string{"-algo", algo, "-format", "disk", "-in", trunc},
			strings.NewReader(""), &out, &errb)
		if code != 2 {
			t.Fatalf("%s: truncated file exited %d, want 2\nstdout: %s\nstderr: %s",
				algo, code, out.String(), errb.String())
		}
		if !strings.Contains(errb.String(), "scdisk") {
			t.Fatalf("%s: stderr does not carry the decode error: %q", algo, errb.String())
		}
		if strings.Contains(out.String(), "valid=true") {
			t.Fatalf("%s: truncated run still printed a valid summary:\n%s", algo, out.String())
		}
	}
}

// -workers must be accepted at any value with byte-identical output: the
// engine's determinism contract, CLI edition (workers > 1 exercises the
// segmented parallel decode on the indexed file).
func TestDiskModeWorkersIdenticalOutput(t *testing.T) {
	path, _ := genFile(t, t.TempDir())
	outputs := make([]string, 0, 3)
	for _, workers := range []string{"1", "2", "5"} {
		var out bytes.Buffer
		code := run([]string{"-algo", "iter", "-seed", "7", "-format", "disk", "-in", path,
			"-workers", workers, "-print-cover"}, strings.NewReader(""), &out, &bytes.Buffer{})
		if code != 0 {
			t.Fatalf("workers=%s: exit %d\n%s", workers, code, out.String())
		}
		outputs = append(outputs, out.String())
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("output diverges across -workers:\n--- workers=1\n%s--- other\n%s",
				outputs[0], outputs[i])
		}
	}
}

// Guard rails of the disk mode.
func TestDiskModeErrors(t *testing.T) {
	path, _ := genFile(t, t.TempDir())
	var out, errb bytes.Buffer
	if code := run([]string{"-format", "disk"}, strings.NewReader(""), &out, &errb); code != 2 {
		t.Fatalf("disk from stdin should fail, got exit %d", code)
	}
	errb.Reset()
	if code := run([]string{"-format", "disk", "-in", path, "-reduce"}, strings.NewReader(""), &out, &errb); code != 2 {
		t.Fatalf("disk + -reduce should fail, got exit %d", code)
	}
	errb.Reset()
	if code := run([]string{"-format", "disk", "-in", filepath.Join(t.TempDir(), "missing.scb")},
		strings.NewReader(""), &out, &errb); code != 2 {
		t.Fatalf("missing file should fail, got exit %d", code)
	}
}
