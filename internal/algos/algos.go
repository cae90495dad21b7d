// Package algos is the one table of the set-stream algorithms served by
// name: cmd/setcover's -algo flag, serve's "algo" field and the tests that
// must cover every algorithm all look a wire name up here, so each name
// maps to exactly one library call. Every entry takes one Params and
// returns one Result; an entry reads the parameters its algorithm has and
// ignores the rest.
package algos

import (
	"slices"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/maxcover"
	"repro/internal/offline"
	"repro/internal/pd"
	"repro/internal/scdyn"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// The shared defaults: what a solve gets for each parameter its caller
// leaves unset. The CLI's flag defaults and serve's request defaults are
// these values.
const (
	DefaultAlgo   = "iter"
	DefaultDelta  = 0.5
	DefaultPasses = 2
	DefaultSeed   = 1
)

// Params are one solve's parameters.
type Params struct {
	// Delta is the paper's δ ∈ (0, 1] for iter and dimv14: 2/δ passes,
	// Õ(m·n^δ) space.
	Delta float64
	// Eps switches the entries marked Partial to ε-Partial Set Cover:
	// cover at least a 1-ε fraction. Zero means full cover.
	Eps float64
	// Passes is cw16's pass budget.
	Passes int
	// Seed drives iter's and dimv14's randomness.
	Seed int64
	// PD configures pd: mode, dual increment and element batch. Its
	// Engine field is ignored; Engine below applies.
	PD pd.Options
	// Offline is iter's offline solver; nil means offline.Greedy.
	Offline offline.Solver
	// Engine configures the pass executor of every entry. Results are
	// identical at every setting.
	Engine engine.Options
}

// Defaults returns the Params of a solve whose caller sets nothing.
func Defaults() Params {
	return Params{Delta: DefaultDelta, Passes: DefaultPasses, Seed: DefaultSeed}
}

// Result is one solve's report: the stats every algorithm returns, plus
// the diagnostics of the entries that have them (zero elsewhere).
type Result struct {
	setcover.Stats
	// BestK is iter's winning guess of the optimum.
	BestK int
	// Batches, Rounds and MaxFrequency are pd's element batches, dual
	// rounds and largest element frequency.
	Batches, Rounds, MaxFrequency int
}

// Entry is one algorithm of the table.
type Entry struct {
	// Name is the wire name.
	Name string
	// Solve runs the algorithm over repo.
	Solve func(repo stream.Repository, p Params) (Result, error)
	// ReportsBestK marks the entry whose Result carries BestK (iter).
	ReportsBestK bool
	// Partial marks the entries that read Params.Eps; every other entry
	// returns a full cover whatever Eps is.
	Partial bool
	// UsesPD marks the entry that reads Params.PD and whose Result
	// carries pd's diagnostics.
	UsesPD bool
}

// stats wraps the report of an algorithm that returns plain Stats.
func stats(st setcover.Stats, err error) (Result, error) { return Result{Stats: st}, err }

// table is every algorithm, in wire order.
var table = []Entry{
	{Name: "iter", ReportsBestK: true, Partial: true, Solve: func(repo stream.Repository, p Params) (Result, error) {
		res, err := core.IterSetCover(repo, core.Options{
			Delta: p.Delta, Seed: p.Seed, PartialEps: p.Eps, Offline: p.Offline, Engine: p.Engine,
		})
		return Result{Stats: res.Stats, BestK: res.BestK}, err
	}},
	{Name: "greedy1", Solve: func(repo stream.Repository, p Params) (Result, error) {
		return stats(baseline.OnePassGreedy(repo, p.Engine))
	}},
	{Name: "greedyn", Partial: true, Solve: func(repo stream.Repository, p Params) (Result, error) {
		return stats(baseline.MultiPassGreedyPartial(repo, p.Eps, p.Engine))
	}},
	{Name: "threshold", Partial: true, Solve: func(repo stream.Repository, p Params) (Result, error) {
		return stats(baseline.ThresholdGreedyPartial(repo, p.Eps, p.Engine))
	}},
	{Name: "sg09", Solve: func(repo stream.Repository, p Params) (Result, error) {
		return stats(maxcover.SahaGetoorSetCover(repo, p.Engine))
	}},
	{Name: "er14", Partial: true, Solve: func(repo stream.Repository, p Params) (Result, error) {
		return stats(baseline.EmekRosenPartial(repo, p.Eps, p.Engine))
	}},
	{Name: "cw16", Partial: true, Solve: func(repo stream.Repository, p Params) (Result, error) {
		return stats(baseline.ChakrabartiWirthPartial(repo, p.Passes, p.Eps, p.Engine))
	}},
	{Name: "dimv14", Solve: func(repo stream.Repository, p Params) (Result, error) {
		return stats(baseline.DIMV14(repo, baseline.DIMV14Options{Delta: p.Delta, Seed: p.Seed}, p.Engine))
	}},
	{Name: "pd", UsesPD: true, Solve: func(repo stream.Repository, p Params) (Result, error) {
		opts := p.PD
		opts.Engine = p.Engine
		res, err := pd.BatchedPrimalDual(repo, opts)
		return Result{Stats: res.Stats, Batches: res.Batches, Rounds: res.Rounds, MaxFrequency: res.MaxFrequency}, err
	}},
	// dyn is the from-scratch density-level greedy behind dynamic
	// instances; it runs on any repository.
	{Name: "dyn", Solve: func(repo stream.Repository, p Params) (Result, error) {
		return stats(scdyn.Solve(repo, p.Engine))
	}},
}

// All returns every entry, in wire order.
func All() []Entry { return slices.Clone(table) }

// Names returns every wire name, in table order.
func Names() []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.Name
	}
	return names
}

// Lookup returns the entry named name.
func Lookup(name string) (Entry, bool) {
	for _, e := range table {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}
