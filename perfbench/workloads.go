package main

import "sort"

// workloadFunc sets one workload up, measures it for cfg.seconds, checks
// every output through rec.op, and records its metrics.
type workloadFunc func(cfg config, rec *recorder) error

var workloads = map[string]workloadFunc{
	"batch-paper": runBatch(batchPaper),
	"batch-scan":  runBatch(batchScan),
	"serve-fleet": runServeFleet,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
