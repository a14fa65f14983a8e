// Package experiments regenerates every table and figure of the ConAir
// evaluation (paper §5–§6) from the reconstructed benchmarks:
//
//	Table 2  — applications and bugs
//	Table 3  — recovery success and run-time overhead (fix & survival)
//	Table 4  — static failure sites hardened, by category
//	Table 5  — reexecution points, static and dynamic, survival & fix
//	Table 6  — fraction of reexecution points removed by the optimization
//	Table 7  — recovery time, retries, and restart comparison
//	Figure 2 — the four atomicity-violation patterns
//	Figure 4 — the reexecution-region design-space trade-off
//	§6.4     — static analysis time (with and without inter-procedural)
//
// Measurements are deterministic: virtual time is interpreter steps, and
// schedulers are seeded. Wall-clock conversions use each run's own
// measured step rate.
package experiments

import (
	"slices"
	"strconv"
	"time"

	"conair/internal/analysis"
	"conair/internal/baseline"
	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/replay"
	"conair/internal/runner"
	"conair/internal/sched"
)

// mustHarden is core.Harden for programs that must harden; it panics on
// error. It keeps no memo: each section hardens what it reports, so the
// §6.4 times are measured in that section's own sequential sweep.
func mustHarden(m *mir.Module, opts core.Options) *core.Hardened {
	h, err := core.Harden(m, opts)
	if err != nil {
		panic(err)
	}
	return h
}

// ---------------------------------------------------------------- Table 2

// Table2Row describes one application (paper Table 2).
type Table2Row struct {
	Name      string
	AppType   string
	PaperLOC  string
	MIRInstrs int // reconstruction size, the analogue of LOC
	Failure   string
	Cause     string
}

// Table2 regenerates Table 2.
func Table2() []Table2Row {
	bs := bugs.All()
	return runner.Map(eng, len(bs), func(i int) Table2Row {
		b := bs[i]
		return Table2Row{
			Name:      b.Name,
			AppType:   b.AppType,
			PaperLOC:  b.Paper.LOC,
			MIRInstrs: prep(b).forcedFull.NumInstrs(),
			Failure:   b.Symptom.String(),
			Cause:     b.RootCause,
		}
	})
}

// ---------------------------------------------------------------- Table 3

// Table3Row reports recovery success and overhead for one app.
type Table3Row struct {
	Name string
	// RecoveredFix / RecoveredSurvival: all forced runs completed.
	RecoveredFix, RecoveredSurvival bool
	// Conditional marks the wrong-output bugs whose recovery needed the
	// developer oracle (the paper's "Xc").
	Conditional bool
	// Runs is how many forced runs each mode was tested with;
	// OverheadSeeds how many scheduler seeds the overheads average over
	// (the paper averages 20 wall-clock runs).
	Runs, OverheadSeeds int
	// Overheads are step-count ratios measured on failure-free full-scale
	// runs (hardened vs original), averaged per seed.
	OverheadFixPct, OverheadSurvivalPct float64
	// PaperOverheadPct is the published survival overhead.
	PaperOverheadPct float64
	// Sanitizer is the detection verdict ("race(global)",
	// "deadlock(la,lb)") from the dynamic sanitizer's PCT search.
	Sanitizer string
}

// Table3 regenerates Table 3. runs is the number of forced-failure runs
// per mode (the paper used 1000); overheadSeeds the number of scheduler
// seeds overhead is averaged over (the paper used 20 runs).
func Table3(runs, overheadSeeds int) []Table3Row {
	if overheadSeeds < 1 {
		overheadSeeds = 1
	}
	bs := bugs.All()
	// Parallel over apps, and the engine further fans out each app's seed
	// sweeps (runs per mode, overheadSeeds triples). Rows land in bug order
	// and every row's floats accumulate in seed order within that row, so
	// the table is bit-identical to the sequential sweep at any worker
	// count.
	return runner.Map(eng, len(bs), func(bi int) Table3Row {
		b := bs[bi]
		p := prep(b)
		row := Table3Row{
			Name:             b.Name,
			Conditional:      b.NeedsOracle,
			Runs:             runs,
			OverheadSeeds:    overheadSeeds,
			PaperOverheadPct: b.Paper.OverheadPct,
			Sanitizer:        SanitizerVerdict(b, sanitizeBudget),
		}

		// Recovery: forced, light workload (recovery behaviour does not
		// depend on workload volume), `runs` seeds per mode.
		row.RecoveredFix = eng.AllComplete(p.forcedFix.Module, runs, expMaxSteps)
		row.RecoveredSurvival = eng.AllComplete(p.forcedSurv.Module, runs, expMaxSteps)

		// Overhead: failure-free, full workload, deterministic steps,
		// averaged over scheduler seeds. Each seed's percentages come from
		// integer step counts, so parallel execution changes nothing; the
		// sums accumulate in seed order to keep float results bit-stable.
		type pcts struct{ fix, surv float64 }
		per := runner.Map(eng, overheadSeeds, func(i int) pcts {
			seed := int64(i + 1)
			orig := interp.RunModule(p.clean, runner.SeedConfig(seed, expMaxSteps)).Stats.Steps
			fixed := interp.RunModule(p.cleanFix.Module, runner.SeedConfig(seed, expMaxSteps)).Stats.Steps
			surv := interp.RunModule(p.cleanSurv.Module, runner.SeedConfig(seed, expMaxSteps)).Stats.Steps
			return pcts{
				fix:  100 * float64(fixed-orig) / float64(orig),
				surv: 100 * float64(surv-orig) / float64(orig),
			}
		})
		var fixSum, survSum float64
		for _, q := range per {
			fixSum += q.fix
			survSum += q.surv
		}
		row.OverheadFixPct = fixSum / float64(overheadSeeds)
		row.OverheadSurvivalPct = survSum / float64(overheadSeeds)
		return row
	})
}

// PCTRecoveryRow reports survival recovery of one program's forced
// failure under strict-priority schedules: the search PCT policy
// (sched.NewSearchPCT), next to Table 3's random schedules.
type PCTRecoveryRow struct {
	Name string
	// Runs is the number of PCT seeds (0..Runs-1); Recovered how many of
	// those runs completed.
	Runs, Recovered int
	// Episodes and Rollbacks total the recovery episodes and rollbacks
	// over every run; RollbacksPerEpisode is their ratio (0 with no
	// episode).
	Episodes, Rollbacks int64
	RollbacksPerEpisode float64
}

// Table3PCT runs the forced survival build of every paper and corpus
// program under PCT seeds 0..runs-1. A rollback yields to a scheduler
// that keeps priorities, so the retrying thread gives way to the thread
// whose write lets it pass, as a real OS would preempt it.
func Table3PCT(runs int) []PCTRecoveryRow {
	bs := append(bugs.All(), bugs.Corpus()...)
	return runner.Map(eng, len(bs), func(bi int) PCTRecoveryRow {
		b := bs[bi]
		mod := prep(b).forcedSurv.Module
		type outcome struct {
			completed           bool
			episodes, rollbacks int64
		}
		per := runner.Map(eng, runs, func(i int) outcome {
			seed := int64(i)
			r := eng.RunJob(mod, interp.Config{Sched: sched.NewSearchPCT(seed), MaxSteps: expMaxSteps},
				replay.Meta{Seed: seed, Label: b.Name + "-pct"})
			return outcome{r.Completed, int64(len(r.Stats.Episodes)), r.Stats.Rollbacks}
		})
		row := PCTRecoveryRow{Name: b.Name, Runs: runs}
		for _, o := range per {
			if o.completed {
				row.Recovered++
			}
			row.Episodes += o.episodes
			row.Rollbacks += o.rollbacks
		}
		if row.Episodes > 0 {
			row.RollbacksPerEpisode = float64(row.Rollbacks) / float64(row.Episodes)
		}
		return row
	})
}

// ---------------------------------------------------------------- Table 4

// Table4Row is the per-app failure-site census.
type Table4Row struct {
	Name string
	// Measured counts: assert/wrong-output/segfault are identified sites;
	// Deadlock counts sites kept after the §4.2 pruning (the paper's
	// table counts hardened deadlock sites).
	Assert, WrongOutput, Segfault, Deadlock, Total int
	Paper                                          analysis.Census
}

// Table4 regenerates Table 4.
func Table4() []Table4Row {
	bs := bugs.All()
	return runner.Map(eng, len(bs), func(i int) Table4Row {
		b := bs[i]
		res, err := analysis.Analyze(prep(b).forced, analysis.DefaultOptions())
		if err != nil {
			panic(err)
		}
		keptDeadlock := 0
		for i := range res.Sites {
			if res.Sites[i].Site.Kind == analysis.SiteDeadlock && res.Sites[i].Recovers() {
				keptDeadlock++
			}
		}
		return Table4Row{
			Name:        b.Name,
			Assert:      res.Census.Assert,
			WrongOutput: res.Census.WrongOutput,
			Segfault:    res.Census.Segfault,
			Deadlock:    keptDeadlock,
			Total:       res.Census.Assert + res.Census.WrongOutput + res.Census.Segfault + keptDeadlock,
			Paper:       b.Paper.Sites,
		}
	})
}

// ---------------------------------------------------------------- Table 5

// Table5Row reports reexecution points per app.
type Table5Row struct {
	Name string
	// Static: checkpoints planted. Dynamic: checkpoint executions in a
	// failure-free full-workload run.
	SurvivalStatic, FixStatic   int
	SurvivalDynamic, FixDynamic int64
	PaperStatic                 int
	PaperDynamic                int
}

// Table5 regenerates Table 5.
func Table5() []Table5Row {
	bs := bugs.All()
	return runner.Map(eng, len(bs), func(i int) Table5Row {
		b := bs[i]
		p := prep(b)
		rs := interp.RunModule(p.cleanSurv.Module, runner.SeedConfig(1, expMaxSteps))
		rf := interp.RunModule(p.cleanFix.Module, runner.SeedConfig(1, expMaxSteps))
		return Table5Row{
			Name:            b.Name,
			SurvivalStatic:  p.cleanSurv.Report.StaticReexecPoints,
			FixStatic:       p.cleanFix.Report.StaticReexecPoints,
			SurvivalDynamic: rs.Stats.Checkpoints,
			FixDynamic:      rf.Stats.Checkpoints,
			PaperStatic:     b.Paper.ReexecStatic,
			PaperDynamic:    b.Paper.ReexecDynamic,
		}
	})
}

// ---------------------------------------------------------------- Table 6

// Table6Row reports the optimization's effect on reexecution points.
type Table6Row struct {
	Name string
	// Percentages of reexecution points removed by the §4.2 pruning,
	// split by the site class a point serves; -1 when the unoptimized
	// count is zero (the paper's N/A).
	NonDeadlockStaticPct, NonDeadlockDynamicPct float64
	DeadlockStaticPct, DeadlockDynamicPct       float64
}

// Table6 regenerates Table 6 by hardening each app with the optimization
// on and off and comparing static plants and dynamic executions.
func Table6() []Table6Row {
	bs := bugs.All()
	return runner.Map(eng, len(bs), func(i int) Table6Row {
		b := bs[i]
		m := prep(b).lightClean
		optOn := core.DefaultOptions()
		optOff := core.DefaultOptions()
		optOff.Optimize = false
		hOn := mustHarden(m, optOn)
		hOff := mustHarden(m, optOff)

		staticOnD, staticOnN := hOn.Report.StaticDeadlockPoints, hOn.Report.StaticNonDeadlockPoints
		staticOffD, staticOffN := hOff.Report.StaticDeadlockPoints, hOff.Report.StaticNonDeadlockPoints

		dynOnD, dynOnN := dynamicByClass(hOn, 1)
		dynOffD, dynOffN := dynamicByClass(hOff, 1)

		return Table6Row{
			Name:                  b.Name,
			NonDeadlockStaticPct:  removedPct(staticOffN, staticOnN),
			NonDeadlockDynamicPct: removedPct(dynOffN, dynOnN),
			DeadlockStaticPct:     removedPct(staticOffD, staticOnD),
			DeadlockDynamicPct:    removedPct(dynOffD, dynOnD),
		}
	})
}

// removedPct is the percentage of off's points that on removed, or -1
// when off is zero.
func removedPct[T int | int64](off, on T) float64 {
	if off == 0 {
		return -1
	}
	return 100 * float64(off-on) / float64(off)
}

// dynamicByClass runs the hardened module and splits checkpoint
// executions by the class of sites each checkpoint serves.
func dynamicByClass(h *core.Hardened, seed int64) (deadlock, nonDeadlock int64) {
	vm := interp.New(h.Module, runner.SeedConfig(seed, expMaxSteps))
	vm.Run()
	execs := vm.CheckpointExecs()
	for _, cp := range h.Report.Analysis.Checkpoints {
		n := execs[cp.ID]
		if cp.ServesDeadlock {
			deadlock += n
		}
		if cp.ServesNonDeadlock {
			nonDeadlock += n
		}
	}
	return deadlock, nonDeadlock
}

// ---------------------------------------------------------------- Table 7

// Table7Row reports failure recovery cost versus whole-program restart.
type Table7Row struct {
	Name string
	// RecoverySteps is the longest recovered episode in the forced run
	// (virtual steps); Retries its rollback count.
	RecoverySteps int64
	Retries       int64
	// RestartSteps is work-lost-plus-rerun for restart recovery on the
	// full workload.
	RestartSteps int64
	// Speedup = RestartSteps / RecoverySteps.
	Speedup float64
	// Paper comparison (microseconds / retries / microseconds).
	PaperRecoveryMicros, PaperRetries, PaperRestartMicros int64
}

// Table7 regenerates Table 7.
func Table7() []Table7Row {
	bs := bugs.All()
	return runner.Map(eng, len(bs), func(i int) Table7Row {
		b := bs[i]
		p := prep(b)
		// Recovery: forced light run under fix-mode hardening.
		r := interp.RunModule(p.forcedFix.Module, runner.SeedConfig(7, expMaxSteps))
		var recSteps, retries int64
		if e := r.MaxEpisode(); e != nil {
			recSteps, retries = e.Duration(), e.Retries
		}

		// Restart: full-workload forced failure + full clean rerun.
		rr := baseline.Restart(p.forcedFull, p.clean, 7, expMaxSteps)

		row := Table7Row{
			Name:                b.Name,
			RecoverySteps:       recSteps,
			Retries:             retries,
			RestartSteps:        rr.TotalSteps,
			PaperRecoveryMicros: b.Paper.RecoveryMicros,
			PaperRetries:        b.Paper.Retries,
			PaperRestartMicros:  b.Paper.RestartMicros,
		}
		if recSteps > 0 {
			row.Speedup = float64(rr.TotalSteps) / float64(recSteps)
		}
		return row
	})
}

// ---------------------------------------------------------------- Figure 2

// Figure2Row reports one atomicity-violation pattern.
type Figure2Row struct {
	Pattern string
	// FailsUnprotected: the forced interleaving breaks the plain program.
	FailsUnprotected bool
	// ConAirRecovered / PaperSaysRecoverable: measured vs §2.2 taxonomy.
	ConAirRecovered      bool
	PaperSaysRecoverable bool
	// CheckpointRecovered: the whole-state baseline's result.
	CheckpointRecovered bool
}

// Figure2 regenerates the Figure 2 pattern study.
func Figure2() []Figure2Row {
	patterns := bugs.Figure2Patterns()
	return runner.Map(eng, len(patterns), func(i int) Figure2Row {
		p := patterns[i]
		m := p.Build()
		row := Figure2Row{Pattern: p.Name, PaperSaysRecoverable: p.ConAirRecovers}
		row.FailsUnprotected = !interp.RunModule(m, runner.SeedConfig(1, expMaxSteps)).Completed

		// Seeds in order, stopping at the first failure: an unrecoverable
		// pattern spins to the retry bound, so its runs must not depend on
		// the pool size. RunModule, not RunJob: -record must not capture
		// that spin.
		h := mustHarden(m, core.DefaultOptions())
		row.ConAirRecovered = true
		for seed := int64(0); seed < 10 && row.ConAirRecovered; seed++ {
			row.ConAirRecovered = interp.RunModule(h.Module, runner.SeedConfig(seed, expMaxSteps)).Completed
		}
		cb := baseline.RunCheckpointed(m, baseline.CheckpointConfig{
			Interval: 25, Seed: 5, PerturbBound: 400, MaxSteps: 5_000_000,
		})
		row.CheckpointRecovered = cb.Completed
		return row
	})
}

// ---------------------------------------------------------------- Figure 4

// Figure4Row is one point on the reexecution-region design spectrum.
type Figure4Row struct {
	Design string
	// OverheadPct on a failure-free run.
	OverheadPct float64
	// RecoverySteps to survive the forced failure (0 = not recovered).
	RecoverySteps int64
	Recovered     bool
}

// Figure4 measures the trade-off sketched in the paper's Figure 4 on one
// representative app (ZSNES): ConAir's idempotent regions at the cheap
// end, whole-program checkpointing at several intervals, and restart.
func Figure4() []Figure4Row {
	p := prep(bugs.ByName("ZSNES"))
	origSteps := interp.RunModule(p.clean, runner.SeedConfig(1, expMaxSteps)).Stats.Steps

	var out []Figure4Row

	// ConAir.
	hardSteps := interp.RunModule(p.cleanSurv.Module, runner.SeedConfig(1, expMaxSteps)).Stats.Steps
	rf := interp.RunModule(p.forcedSurv.Module, runner.SeedConfig(7, expMaxSteps))
	var rec int64
	if e := rf.MaxEpisode(); e != nil {
		rec = e.Duration()
	}
	out = append(out, Figure4Row{
		Design:        "conair-idempotent-regions",
		OverheadPct:   100 * float64(hardSteps-origSteps) / float64(origSteps),
		RecoverySteps: rec,
		Recovered:     rf.Completed,
	})

	// Whole-program checkpointing at decreasing density, one design point
	// per worker (the snapshot-heavy baseline dominates Figure 4's cost).
	intervals := []int64{1_000, 10_000, 100_000}
	out = append(out, runner.Map(eng, len(intervals), func(i int) Figure4Row {
		cfg := baseline.CheckpointConfig{Interval: intervals[i], Seed: 5, PerturbBound: 1200, MaxSteps: 100_000_000}
		cb := baseline.RunCheckpointed(p.clean, cfg)
		fb := baseline.RunCheckpointed(p.forced, cfg)
		return Figure4Row{
			Design:        "full-checkpoint-every-" + strconv.FormatInt(intervals[i], 10),
			OverheadPct:   100 * float64(cb.Steps-origSteps) / float64(origSteps),
			RecoverySteps: fb.RecoverySteps,
			Recovered:     fb.Completed,
		}
	})...)

	// Whole-program restart.
	rr := baseline.Restart(p.forcedFull, p.clean, 7, expMaxSteps)
	out = append(out, Figure4Row{
		Design:        "whole-program-restart",
		OverheadPct:   0,
		RecoverySteps: rr.TotalSteps,
		Recovered:     rr.Recovered,
	})
	return out
}

// ------------------------------------------------------------- §6.4 times

// AnalysisTimeRow reports static-analysis wall time per app.
type AnalysisTimeRow struct {
	Name      string
	Intra     time.Duration // interprocedural analysis disabled
	Full      time.Duration // the default configuration
	Transform time.Duration
}

// analysisSamples is how many times AnalysisTimes hardens each
// configuration of each app; the rows report the median sample.
const analysisSamples = 5

// AnalysisTimes regenerates the §6.4 analysis-time measurements. The
// sweep stays sequential on purpose: it measures wall-clock hardening
// time, and parallel workers contending for cores would inflate every
// sample. Both configurations are hardened here, so no reported time
// comes from another section's (possibly parallel) hardening. Which
// configuration goes first alternates from app to app, and each column is
// the median of analysisSamples hardenings, so neither column always
// pays for the first, cold hardening.
func AnalysisTimes() []AnalysisTimeRow {
	intraOpts := core.DefaultOptions()
	intraOpts.Interproc = false
	var out []AnalysisTimeRow
	for i, b := range bugs.All() {
		m := prep(b).lightClean
		var intra, full, transform []time.Duration
		hardenIntra := func() {
			intra = append(intra, mustHarden(m, intraOpts).Report.AnalysisTime)
		}
		hardenFull := func() {
			r := mustHarden(m, core.DefaultOptions()).Report
			full = append(full, r.AnalysisTime)
			transform = append(transform, r.TransformTime)
		}
		for range analysisSamples {
			if i%2 == 0 {
				hardenIntra()
				hardenFull()
			} else {
				hardenFull()
				hardenIntra()
			}
		}
		out = append(out, AnalysisTimeRow{
			Name:      b.Name,
			Intra:     medianDuration(intra),
			Full:      medianDuration(full),
			Transform: medianDuration(transform),
		})
	}
	return out
}

// medianDuration returns the median of an odd-length sample, sorting it.
func medianDuration(d []time.Duration) time.Duration {
	slices.Sort(d)
	return d[len(d)/2]
}
