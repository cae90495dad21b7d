package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current build")

// goldenCases are the invocations whose stdout, stderr and exit code are
// pinned byte for byte in testdata/golden.txt: every algorithm, the partial
// variants, -eps on the algorithms that ignore it (their goal stays a full
// cover), the parameter variants, the n = 0 instance, the help text and the
// errors.
var goldenCases = []struct {
	args  []string
	stdin string
}{
	{args: []string{"-h"}},
	{args: []string{"-algo", "iter", "-print-cover"}},
	{args: []string{"-algo", "greedy1", "-print-cover"}},
	{args: []string{"-algo", "greedyn", "-print-cover"}},
	{args: []string{"-algo", "threshold", "-print-cover"}},
	{args: []string{"-algo", "sg09", "-print-cover"}},
	{args: []string{"-algo", "er14", "-print-cover"}},
	{args: []string{"-algo", "cw16", "-print-cover"}},
	{args: []string{"-algo", "dimv14", "-print-cover"}},
	{args: []string{"-algo", "pd", "-print-cover"}},
	{args: []string{"-algo", "dyn", "-print-cover"}},
	{args: []string{"-algo", "iter", "-eps", "0.1", "-print-cover"}},
	{args: []string{"-algo", "greedyn", "-eps", "0.1", "-print-cover"}},
	{args: []string{"-algo", "threshold", "-eps", "0.1", "-print-cover"}},
	{args: []string{"-algo", "er14", "-eps", "0.1", "-print-cover"}},
	{args: []string{"-algo", "cw16", "-eps", "0.1", "-print-cover"}},
	{args: []string{"-algo", "greedy1", "-eps", "0.5", "-print-cover"}},
	{args: []string{"-algo", "sg09", "-eps", "0.5", "-print-cover"}},
	{args: []string{"-algo", "dimv14", "-eps", "0.5", "-print-cover"}},
	{args: []string{"-algo", "pd", "-eps", "0.5", "-print-cover"}},
	{args: []string{"-algo", "dyn", "-eps", "0.5", "-print-cover"}},
	{args: []string{"-algo", "iter", "-exact-offline", "-print-cover"}},
	{args: []string{"-algo", "iter", "-delta", "0.25", "-seed", "5", "-print-cover"}},
	{args: []string{"-algo", "cw16", "-passes", "3", "-print-cover"}},
	{args: []string{"-algo", "dimv14", "-delta", "0.25", "-print-cover"}},
	{args: []string{"-algo", "pd", "-pd-mode", "trivial", "-print-cover"}},
	{args: []string{"-algo", "pd", "-pd-eps", "0.01", "-pd-batch", "16", "-print-cover"}},
	{args: []string{"-algo", "iter", "-in", "-"}, stdin: "setcover 0 0\n"},
	{args: []string{"-algo", "pd", "-in", "-"}, stdin: "setcover 0 0\n"},
	{args: []string{"-algo", "nope"}},
	{args: []string{"-algo", "pd", "-pd-mode", "bad"}},
	{args: []string{"-algo", "iter", "-pd-mode", "bad"}},
}

// TestGoldenOutput pins the CLI's bytes: each case runs against
// testdata/planted.txt (unless it reads stdin) and its exit code, stdout and
// stderr must match testdata/golden.txt exactly. Run with -update to rewrite
// the file after an intended change.
func TestGoldenOutput(t *testing.T) {
	var got bytes.Buffer
	for _, c := range goldenCases {
		args := c.args
		if c.stdin == "" {
			args = append([]string{"-in", "testdata/planted.txt"}, args...)
		}
		var out, errb bytes.Buffer
		code := run(args, strings.NewReader(c.stdin), &out, &errb)
		fmt.Fprintf(&got, "=== setcover %s\nexit %d\n--- stdout\n%s--- stderr\n%s",
			strings.Join(args, " "), code, out.String(), errb.String())
	}
	const path = "testdata/golden.txt"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g := got.String(); g != string(want) {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(g, "\n")
		for i := range max(len(wl), len(gl)) {
			if i >= len(wl) || i >= len(gl) || wl[i] != gl[i] {
				t.Fatalf("output departs from %s at line %d:\n  want: %q\n  got:  %q",
					path, i+1, at(wl, i), at(gl, i))
			}
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<EOF>"
}
