package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// runCompare prints, metric by metric, how the second saved result (--out)
// differs from the first. It refuses results recorded on different CPU
// counts, workloads or modes: their numbers do not compare.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE.json NEW.json")
		return 2
	}
	var runs [2]savedResult
	for i, path := range args {
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, &runs[i])
		}
		if err == nil && runs[i].Result == nil {
			err = fmt.Errorf("no result")
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench compare: %s: %v\n", path, err)
			return 2
		}
	}
	if err := comparable(runs[0], runs[1]); err != nil {
		fmt.Fprintln(stderr, "perfbench compare: refusing:", err)
		return 2
	}
	base, cur := runs[0].Result.Metrics, runs[1].Result.Metrics
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b, c := base[name], cur[name]
		change := "n/a"
		if b.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(c.Value/b.Value-1))
		}
		fmt.Fprintf(stdout, "%-32s %14.4f %14.4f %-6s %s\n", name, b.Value, c.Value, b.Unit, change)
	}
	return 0
}

// comparable reports why two saved results may not be put side by side.
func comparable(a, b savedResult) error {
	pa, pb := a.Provenance, b.Provenance
	switch {
	case pa.NumCPU != pb.NumCPU || pa.GOMAXPROCS != pb.GOMAXPROCS:
		return fmt.Errorf("recorded with nproc=%d/GOMAXPROCS=%d and nproc=%d/GOMAXPROCS=%d",
			pa.NumCPU, pa.GOMAXPROCS, pb.NumCPU, pb.GOMAXPROCS)
	case pa.Workload != pb.Workload:
		return fmt.Errorf("workloads %s and %s", pa.Workload, pb.Workload)
	case a.Trace != b.Trace:
		return fmt.Errorf("one traced and one untraced result")
	case pa.Seconds != pb.Seconds || pa.Rate != pb.Rate:
		return fmt.Errorf("run lengths %gs/%g req/s and %gs/%g req/s", pa.Seconds, pa.Rate, pb.Seconds, pb.Rate)
	}
	return nil
}
