// Package experiments reproduces every table and figure of the paper as
// runnable measurements. Each Ei function returns a Table; RunAll prints
// them all (cmd/experiments) and bench_test.go wraps each in a testing.B
// benchmark. The experiment index (what maps to which paper artifact) lives
// in DESIGN.md §4; measured-vs-paper commentary lives in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/engine"
)

// Table is one experiment's output: a titled grid plus free-form notes.
type Table struct {
	ID    string
	Title string
	Notes []string
	Head  []string
	Rows  [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a note line printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render prints the table in aligned plain text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Head))
	for i, h := range t.Head {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Head)
	sep := make([]string, len(t.Head))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Markdown renders the table as GitHub-flavored markdown (for EXPERIMENTS.md).
func (t *Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Head, " | "))
	seps := make([]string, len(t.Head))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n*%s*\n", n)
	}
	fmt.Fprintln(w)
}

// Spec names one experiment and builds its table on demand, so callers that
// want a subset (cmd/experiments -only) can skip the cost of the rest.
// eng configures the pass engine for the build; tables are identical at
// every setting.
type Spec struct {
	ID    string
	Build func(seed int64, quick bool, eng engine.Options) Table
}

// Registry returns every experiment in DESIGN.md §4 order WITHOUT running
// any of them.
func Registry() []Spec {
	return []Spec{
		{"E1", E1Figure11},
		{"E2", E2DeltaSweep},
		{"E3", func(_ int64, quick bool, _ engine.Options) Table { return E3Figure12(quick) }},
		{"E4", E4Geometric},
		{"E5", E5CanonicalCounts},
		{"E6", E6RecoverBits},
		{"E7", E7ISCReduction},
		{"E8", E8SparseLB},
		{"E9", E9AblationSizeTest},
		{"E10", E10AblationSampling},
		{"E11", E11AblationOffline},
		{"E12", E12RelativeApprox},
		{"E13", E13PartialCover},
		{"E14", E14CanonicalAblation},
		{"E15", E15ProtocolSimulation},
		{"E16", E16MaxKCover},
		{"E17", E17Tightness},
		{"E18", E18Scaling},
		{"E19", E19PrimalDual},
	}
}

// All runs every experiment in DESIGN.md §4 order, built with the given
// seed. Quick mode shrinks the workloads (used by unit tests; the full sizes
// run in cmd/experiments and the benchmarks). eng configures the pass engine
// for every build.
func All(seed int64, quick bool, eng engine.Options) []Table {
	specs := Registry()
	out := make([]Table, 0, len(specs))
	for _, s := range specs {
		out = append(out, s.Build(seed, quick, eng))
	}
	return out
}

// RunAll renders every experiment to w.
func RunAll(w io.Writer, seed int64, quick bool, markdown bool, eng engine.Options) {
	for _, t := range All(seed, quick, eng) {
		if markdown {
			t.Markdown(w)
		} else {
			t.Render(w)
		}
	}
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2c(v float64) string { return fmt.Sprintf("%.2f", v) }
func d(v int) string       { return fmt.Sprintf("%d", v) }
func d64(v int64) string   { return fmt.Sprintf("%d", v) }
