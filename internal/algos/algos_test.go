package algos

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/maxcover"
	"repro/internal/offline"
	"repro/internal/pd"
	"repro/internal/scdisk"
	"repro/internal/scdyn"
	"repro/internal/stream"
)

// direct is each wire name's library call, written out by hand: the table
// must produce exactly what these produce.
var direct = map[string]func(stream.Repository, Params) (Result, error){
	"iter": func(r stream.Repository, p Params) (Result, error) {
		res, err := core.IterSetCover(r, core.Options{
			Delta: p.Delta, Seed: p.Seed, PartialEps: p.Eps, Offline: p.Offline, Engine: p.Engine,
		})
		return Result{Stats: res.Stats, BestK: res.BestK}, err
	},
	"greedy1": func(r stream.Repository, p Params) (Result, error) {
		return stats(baseline.OnePassGreedy(r, p.Engine))
	},
	"greedyn": func(r stream.Repository, p Params) (Result, error) {
		return stats(baseline.MultiPassGreedyPartial(r, p.Eps, p.Engine))
	},
	"threshold": func(r stream.Repository, p Params) (Result, error) {
		return stats(baseline.ThresholdGreedyPartial(r, p.Eps, p.Engine))
	},
	"sg09": func(r stream.Repository, p Params) (Result, error) {
		return stats(maxcover.SahaGetoorSetCover(r, p.Engine))
	},
	"er14": func(r stream.Repository, p Params) (Result, error) {
		return stats(baseline.EmekRosenPartial(r, p.Eps, p.Engine))
	},
	"cw16": func(r stream.Repository, p Params) (Result, error) {
		return stats(baseline.ChakrabartiWirthPartial(r, p.Passes, p.Eps, p.Engine))
	},
	"dimv14": func(r stream.Repository, p Params) (Result, error) {
		return stats(baseline.DIMV14(r, baseline.DIMV14Options{Delta: p.Delta, Seed: p.Seed}, p.Engine))
	},
	"pd": func(r stream.Repository, p Params) (Result, error) {
		res, err := pd.BatchedPrimalDual(r, pd.Options{
			Mode: p.PD.Mode, Epsilon: p.PD.Epsilon, ElemBatch: p.PD.ElemBatch, Engine: p.Engine,
		})
		return Result{Stats: res.Stats, Batches: res.Batches, Rounds: res.Rounds, MaxFrequency: res.MaxFrequency}, err
	},
	"dyn": func(r stream.Repository, p Params) (Result, error) {
		return stats(scdyn.Solve(r, p.Engine))
	},
}

// Every entry of the table matches its direct library call, on an in-memory
// repository and on an SCB1 file, at the defaults and at non-default values
// of every parameter. An entry without a direct call fails the test, so a
// new algorithm cannot join the table unchecked.
func TestEntriesMatchDirectCalls(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 60, M: 150, K: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "planted.scb")
	if err := scdisk.WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	disk, err := scdisk.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	tuned := Params{Delta: 0.25, Eps: 0.1, Passes: 3, Seed: 7,
		PD:      pd.Options{Mode: pd.ModeTrivial, Epsilon: 0.01},
		Offline: offline.Exact{}, Engine: engine.Options{Workers: 1, BatchSize: 7}}
	batched := Defaults()
	batched.PD = pd.Options{Epsilon: 0.05, ElemBatch: 16}
	params := map[string]Params{"defaults": Defaults(), "tuned": tuned, "pd batches": batched}

	if len(direct) != len(table) {
		t.Errorf("%d direct calls for %d entries", len(direct), len(table))
	}
	for _, e := range All() {
		call, ok := direct[e.Name]
		if !ok {
			t.Errorf("%s: no direct library call to check the entry against", e.Name)
			continue
		}
		for _, repo := range []stream.Repository{stream.NewSliceRepo(in), disk} {
			for label, p := range params {
				want, wantErr := call(repo, p)
				got, gotErr := e.Solve(repo, p)
				if (wantErr == nil) != (gotErr == nil) || !reflect.DeepEqual(got, want) {
					t.Errorf("%s on %T at %s: entry %+v (%v), direct %+v (%v)",
						e.Name, repo, label, got, gotErr, want, wantErr)
				}
			}
		}
	}
}

// The names, lookups and defaults the CLI and serve build their surface
// from: wire order, no duplicates, and a default that is in the table.
func TestNamesAndLookup(t *testing.T) {
	want := []string{"iter", "greedy1", "greedyn", "threshold", "sg09", "er14", "cw16", "dimv14", "pd", "dyn"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		if e, ok := Lookup(name); !ok || e.Name != name || e.Solve == nil {
			t.Errorf("Lookup(%q) = %+v, %v", name, e, ok)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error(`Lookup("nope") found an entry`)
	}
	if _, ok := Lookup(DefaultAlgo); !ok {
		t.Errorf("default algorithm %q is not in the table", DefaultAlgo)
	}
	if d := Defaults(); d.Delta != DefaultDelta || d.Passes != DefaultPasses || d.Seed != DefaultSeed {
		t.Errorf("Defaults() = %+v", d)
	}
}

// An entry not marked Partial must not read Params.Eps: at ε = 0.3 it
// returns the identical cover, passes and space it returns at ε = 0, so the
// CLI may judge its cover against a full-cover goal. An entry that starts
// reading ε fails here until it is marked. The marked entries do read it:
// on this instance ε = 0.3 changes each one's result.
func TestFullCoverEntriesIgnoreEps(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 60, M: 150, K: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	full, partial := Defaults(), Defaults()
	partial.Eps = 0.3
	for _, e := range All() {
		want, wantErr := e.Solve(stream.NewSliceRepo(in), full)
		got, gotErr := e.Solve(stream.NewSliceRepo(in), partial)
		if wantErr != nil || gotErr != nil {
			t.Fatalf("%s: %v / %v", e.Name, wantErr, gotErr)
		}
		same := reflect.DeepEqual(got, want)
		switch {
		case !e.Partial && !same:
			t.Errorf("%s is not marked Partial but ε = 0.3 changed its result: %+v, at ε = 0 %+v", e.Name, got, want)
		case e.Partial && same:
			t.Errorf("%s is marked Partial but ε = 0.3 left its result unchanged: %+v", e.Name, got)
		}
	}
}
