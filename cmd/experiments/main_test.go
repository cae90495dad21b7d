package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// End to end: the quick reproduction of one experiment must run clean and
// print its table — this is the smoke test CI runs so the reproduction
// binary cannot silently rot.
func TestQuickE2EndToEnd(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-quick", "-only", "E2"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "E2") || !strings.Contains(s, "delta") {
		t.Fatalf("E2 table missing from output:\n%s", s)
	}
	if strings.Contains(s, "E1 ") {
		t.Fatalf("-only E2 also printed other experiments:\n%s", s)
	}
}

// The committed quick reproduction (testdata/quick.txt) must regenerate
// byte-for-byte at every pass-engine setting: a changed cover, pass count or
// space charge in any table shows up here as a diff to review, and the
// engine's determinism contract shows up as identical output across
// -workers and -batch.
func TestWorkersIdenticalTables(t *testing.T) {
	want, err := os.ReadFile("testdata/quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-workers", "1"}, {"-workers", "4"}, {"-workers", "2", "-batch", "7"}} {
		var out, errb bytes.Buffer
		if code := run(append([]string{"-quick"}, args...), &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d\nstderr: %s", args, code, errb.String())
		}
		if got := out.String(); got != string(want) {
			t.Errorf("%v: quick tables differ from testdata/quick.txt:\n%s", args, firstDiff(string(want), got))
		}
	}
}

// firstDiff renders the first line where got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d\n  want: %q\n  got:  %q", i+1, wl, gl)
		}
	}
	return "(identical)"
}

// Unknown experiment IDs must fail, not silently print nothing.
func TestUnknownExperimentID(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-quick", "-only", "E99"}, &out, &errb); code != 2 {
		t.Fatalf("unknown ID exited %d, want 2", code)
	}
}

// Markdown mode renders GitHub tables.
func TestMarkdownMode(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-quick", "-only", "E2", "-markdown"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "| --- |") {
		t.Fatalf("markdown separator missing:\n%s", out.String())
	}
}
