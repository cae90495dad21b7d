// Command setcover runs a streaming set cover algorithm on an instance file
// and reports the cover together with the measured passes and space.
//
// Usage:
//
//	setcover -algo iter -delta 0.5 -in instance.txt
//	setcover -algo er14 -in instance.txt -print-cover
//	scgen -kind planted -n 1000 -m 2000 -k 20 | setcover -algo cw16 -passes 3
//	scgen -kind planted -n 100000 -m 1000000 -format binary -out big.scb
//	setcover -algo iter -format disk -in big.scb
//
// Algorithms: iter (the paper's iterSetCover), greedy1 (one-pass greedy),
// greedyn (n-pass greedy), threshold (SG09-style thresholding), sg09
// (repeated max-k-cover, the faithful SG09 loop), er14 (Emek–Rosén), cw16
// (Chakrabarti–Wirth), dimv14 (element sampling), pd (batched primal-dual;
// tune with -pd-mode, -pd-eps, -pd-batch), dyn (the density-level exact
// greedy that backs dynamic instances: one pass to ingest, identical cover
// to greedyn's exact greedy, and the algorithm setcoverd re-solves mutable
// instances with).
//
// On weighted instances (-format disk files carrying an SCWT weight section,
// written by scgen -weights) every algorithm minimizes total cost instead of
// cardinality, and the report adds a "cover cost" line.
//
// -eps switches iter/er14/cw16/threshold/greedyn to the ε-Partial Set Cover
// problem (cover at least a 1-ε fraction).
//
// -format selects how the instance is accessed:
//
//	text    — the human-readable format, loaded into memory
//	binary  — the SCB1 varint format, loaded into memory
//	disk    — the SCB1 file (plain or indexed) streamed out-of-core: sets are
//	          decoded per pass and only O(BatchSize) of them are ever
//	          resident, so instances larger than RAM solve fine. Requires
//	          -in to name a file; -reduce is unavailable (it needs the whole
//	          family in memory), and the cover is verified with one extra
//	          streaming pass.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	ssc "repro"
	"repro/internal/algos"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run executes the command against explicit streams so tests drive the full
// CLI path in-process. It returns the process exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("setcover", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		algo       = fs.String("algo", algos.DefaultAlgo, "algorithm: "+strings.Join(algos.Names(), "|"))
		inPath     = fs.String("in", "-", "instance file ('-' = stdin)")
		format     = fs.String("format", "text", "instance access: text|binary (in-memory) | disk (stream the SCB1 file out-of-core)")
		delta      = fs.Float64("delta", algos.DefaultDelta, "delta for iter/dimv14 (passes 2/delta, space ~ m*n^delta)")
		passes     = fs.Int("passes", algos.DefaultPasses, "pass budget for cw16")
		eps        = fs.Float64("eps", 0, "partial-cover slack: cover at least a (1-eps) fraction")
		seed       = fs.Int64("seed", algos.DefaultSeed, "random seed")
		exact      = fs.Bool("exact-offline", false, "use the exact offline solver inside iter (rho = 1)")
		workers    = fs.Int("workers", 0, "pass-engine worker goroutines: observer fan-out and, at >1 on indexed files, segmented parallel decode (0 = GOMAXPROCS)")
		batch      = fs.Int("batch", 0, "pass-engine batch size (0 = default)")
		noSeg      = fs.Bool("no-segmented", false, "force the single-reader decode path even at -workers > 1 (results identical; separates decode parallelism from observer fan-out when debugging)")
		mmap       = fs.Bool("mmap", false, "with -format disk, memory-map the file and decode from the mapping (results identical; falls back to positional reads where unsupported)")
		reduce     = fs.Bool("reduce", false, "apply OPT-preserving dominance reductions before solving (text/binary only)")
		printCover = fs.Bool("print-cover", false, "print the chosen set IDs")
		pdMode     = fs.String("pd-mode", "dedicated", "pd reveal mode: dedicated (element batches) | trivial (one element per pass)")
		pdEps      = fs.Float64("pd-eps", 0, "pd dual increment (0 = default)")
		pdBatch    = fs.Int("pd-batch", 0, "pd elements revealed per batch in dedicated mode (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "setcover:", err)
		return 2
	}

	// -workers/-batch tune the pass engine for every algorithm. Results are
	// identical at every setting.
	engOpts := ssc.EngineOptions{Workers: *workers, BatchSize: *batch, DisableSegmented: *noSeg}

	// Open the repository: disk mode streams the file out-of-core, the other
	// formats materialize an Instance (which verification then reuses).
	var (
		repo     ssc.Repository
		original *ssc.Instance
		origID   []int
	)
	switch *format {
	case "disk":
		if *inPath == "-" {
			return fatal(fmt.Errorf("-format disk needs -in to name a file (passes must seek back to the start)"))
		}
		if *reduce {
			return fatal(fmt.Errorf("-reduce needs the whole family in memory; use -format binary"))
		}
		var openOpts []ssc.OpenOption
		if *mmap {
			openOpts = append(openOpts, ssc.ReadOnlyMmap())
		}
		d, err := ssc.OpenFile(*inPath, openOpts...)
		if err != nil {
			return fatal(err)
		}
		defer d.Close()
		repo = d
	case "text", "binary":
		in, err := readInstance(*inPath, *format, stdin)
		if err != nil {
			return fatal(err)
		}
		original = in
		solveOn := in
		if *reduce {
			red := ssc.Reduce(in)
			fmt.Fprintf(stdout, "reduced:     -%d sets, -%d elements (n=%d m=%d remain)\n",
				red.RemovedSets, red.RemovedElems, red.Instance.N, red.Instance.M())
			solveOn = red.Instance
			origID = red.OrigSetID
		}
		repo = ssc.NewRepository(solveOn)
	default:
		return fatal(fmt.Errorf("unknown format %q", *format))
	}

	e, ok := algos.Lookup(*algo)
	if !ok {
		return fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}
	p := algos.Params{Delta: *delta, Eps: *eps, Passes: *passes, Seed: *seed,
		PD: ssc.PDOptions{Epsilon: *pdEps, ElemBatch: *pdBatch}, Engine: engOpts}
	if *exact {
		p.Offline = ssc.ExactSolver{}
	}
	if e.UsesPD {
		mode, err := ssc.ParsePDMode(*pdMode)
		if err != nil {
			return fatal(err)
		}
		p.PD.Mode = mode
	}
	res, err := e.Solve(repo, p)
	if err != nil {
		return fatal(err)
	}
	if e.ReportsBestK {
		fmt.Fprintf(stdout, "best guess k: %d\n", res.BestK)
	}
	if e.UsesPD {
		fmt.Fprintf(stdout, "pd: %d batches, %d dual rounds, max frequency %d\n",
			res.Batches, res.Rounds, res.MaxFrequency)
	}
	st := res.Stats

	if origID != nil {
		// Map reduced set IDs back to the original instance's IDs.
		for i, id := range st.Cover {
			st.Cover[i] = origID[id]
		}
	}

	// Verify against the instance when it is in memory, or with one extra
	// streaming pass when it only exists on disk.
	n, m := repo.UniverseSize(), repo.NumSets()
	var covered int
	if original != nil {
		n, m = original.N, original.M()
		covered = original.CoverageOf(st.Cover).Count()
	} else {
		// A decode failure during the verify pass means the counts are from
		// a partial scan: fail loudly. (Solve passes over a bad file already
		// failed above — the engine reports mid-pass errors per pass, so
		// there is no repository-level flag left to poll here.)
		if covered, n, err = ssc.VerifyCover(repo, st.Cover, engOpts); err != nil {
			return fatal(err)
		}
	}
	coverage := 1.0
	if n > 0 {
		coverage = float64(covered) / float64(n)
	}
	goalEps := 0.0
	if e.Partial {
		goalEps = *eps
	}
	valid := float64(n-covered) <= goalEps*float64(n)

	fmt.Fprintf(stdout, "algorithm:   %s\n", st.Algorithm)
	fmt.Fprintf(stdout, "instance:    n=%d m=%d\n", n, m)
	fmt.Fprintf(stdout, "cover size:  %d (coverage=%.3f, goal>=%.3f, valid=%v)\n",
		len(st.Cover), coverage, 1-goalEps, valid)
	if ssc.RepositoryHasWeights(repo) {
		fmt.Fprintf(stdout, "cover cost:  %.6g (weighted instance)\n", ssc.CoverWeight(repo, st.Cover))
	}
	fmt.Fprintf(stdout, "passes:      %d\n", st.Passes)
	fmt.Fprintf(stdout, "space:       %d words\n", st.SpaceWords)
	if *printCover {
		ids := append([]int(nil), st.Cover...)
		sort.Ints(ids)
		fmt.Fprintf(stdout, "cover:       %v\n", ids)
	}
	if !valid {
		return 1
	}
	return 0
}

func readInstance(path, format string, stdin io.Reader) (*ssc.Instance, error) {
	r := stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	switch format {
	case "text":
		return ssc.ReadInstance(r)
	case "binary":
		return ssc.ReadInstanceBinary(r)
	default:
		return nil, fmt.Errorf("unknown format %q", format)
	}
}
