package experiments

import (
	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/runner"
)

// Ablations measures what each ConAir design choice buys, on the bugs
// that depend on it:
//
//   - the EXTENDED region policy (§4.1, locks/allocs in regions with
//     compensation) is what makes deadlock recovery possible at all: under
//     the BASIC policy every region stops at the first lock acquisition,
//     no region contains a lock, and every deadlock site is pruned as
//     unrecoverable;
//   - INTER-PROCEDURAL recovery (§4.3) is what recovers the two bugs whose
//     failure depends only on a function parameter: without it the stale
//     parameter makes every reexecution fail identically;
//   - the PRUNING optimization (§4.2) trades nothing for fewer reexecution
//     points: recovery capability is unchanged and overhead drops.
type AblationRow struct {
	Config string
	App    string
	// Recovered: all forced runs completed.
	Recovered bool
	// StaticPoints: planted checkpoints under this configuration.
	StaticPoints int
	// OverheadPct on the failure-free full workload.
	OverheadPct float64
}

// ablationApps are the bugs whose recovery exercises each design choice.
var ablationApps = []string{"HawkNL", "MozillaXP", "Transmission", "MySQL2"}

// Ablations runs the sweep. runs forced runs decide "recovered".
func Ablations(runs int) []AblationRow {
	configs := []struct {
		name string
		mk   func() core.Options
	}{
		{"default(extended+interproc+optimize)", core.DefaultOptions},
		{"basic-regions(no-§4.1)", func() core.Options {
			o := core.DefaultOptions()
			o.Policy = mir.PolicyBasic
			return o
		}},
		{"no-interproc(no-§4.3)", func() core.Options {
			o := core.DefaultOptions()
			o.Interproc = false
			return o
		}},
		{"no-optimize(no-§4.2)", func() core.Options {
			o := core.DefaultOptions()
			o.Optimize = false
			return o
		}},
	}

	// One grid cell per (configuration, app) pair, fanned across the
	// worker pool; the result slice is indexed by cell, so row order is
	// identical to the historical nested loop.
	n := len(ablationApps)
	return runner.Map(eng, len(configs)*n, func(cell int) AblationRow {
		cfg, app := configs[cell/n], ablationApps[cell%n]
		b := bugs.ByName(app)
		p := prep(b)
		opts := cfg.mk()
		// Bound the useless-retry loops ablated configurations run
		// into, so "not recovered" is observed quickly rather than
		// after a million stale reexecutions.
		opts.Transform.MaxRetry = 20_000

		hForced := mustHarden(p.forced, opts)
		recovered := true
		for seed := 0; seed < runs; seed++ {
			if !interp.RunModule(hForced.Module, runner.SeedConfig(int64(seed), expMaxSteps)).Completed {
				recovered = false
				break
			}
		}

		hClean := mustHarden(p.clean, opts)
		orig := interp.RunModule(p.clean, runner.SeedConfig(1, expMaxSteps)).Stats.Steps
		hard := interp.RunModule(hClean.Module, runner.SeedConfig(1, expMaxSteps)).Stats.Steps

		return AblationRow{
			Config:       cfg.name,
			App:          app,
			Recovered:    recovered,
			StaticPoints: hClean.Report.StaticReexecPoints,
			OverheadPct:  100 * float64(hard-orig) / float64(orig),
		}
	})
}
