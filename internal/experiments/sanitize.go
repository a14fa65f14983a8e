package experiments

import (
	"fmt"
	"sync"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/mirgen"
	"conair/internal/replay"
	"conair/internal/sanitizer"
	"conair/internal/sched"
)

// This file is the sanitizer's experiment harness: schedule search for
// injected-bug detection, benchmark verdicts for Table 3, and the
// three-way cross-check that ties the mirgen bug templates, the sanitizer
// and ConAir hardening together into one ground-truth oracle.

// SanitizeRun executes mod once under cfg with a fresh sanitizer attached,
// recording the sanitizer's counters in the experiment metrics registry.
// The run goes through the engine's hardened job path, so when a run hook
// writes recordings (conair-bench -record) every failing sanitize run
// lands on disk as a replayable schedule artifact.
func SanitizeRun(mod *mir.Module, cfg interp.Config) (*sanitizer.Sanitizer, *interp.Result) {
	san := sanitizer.New(mod)
	cfg.Sanitizer = san
	r := eng.RunJob(mod, cfg, replay.Meta{Label: mod.Name + "-sanitize"})
	san.RecordMetrics(reg)
	return san, r
}

// pctCfg is the adversarial-schedule config the sanitizer search uses;
// the PCT policy matches internal/bugs' bug-finding tests.
func pctCfg(seed, maxSteps int64) interp.Config {
	return interp.Config{
		Sched:         sched.NewSearchPCT(seed),
		MaxSteps:      maxSteps,
		CollectOutput: true,
	}
}

// sanPool recycles sanitizers across search seeds (and searches): Reset
// hands each run a clean detector that reuses every map bucket, shadow
// cell, clock slice and arena region from previous runs, so a seed sweep
// over one program shape is allocation-free after the first seed.
var sanPool = sync.Pool{New: func() any { return sanitizer.New(nil) }}

// SanitizeSearch runs mod under PCT schedule seeds 0..budget-1 in order,
// returning the first schedule seed whose sanitized run produced reports
// together with those reports, or (-1, nil) when the whole budget stayed
// clean. The walk stops at the hit, so its runs do not depend on the
// engine's pool size; callers fan out over programs instead.
func SanitizeSearch(mod *mir.Module, budget, maxSteps int64) (int64, []sanitizer.Report) {
	san := sanPool.Get().(*sanitizer.Sanitizer)
	defer sanPool.Put(san)
	for seed := int64(0); seed < budget; seed++ {
		sanitizePCT(san, mod, seed, maxSteps)
		if rs := san.Reports(); len(rs) > 0 {
			// Copy out: san goes back to the pool and the next Reset
			// recycles its report storage.
			return seed, append([]sanitizer.Report(nil), rs...)
		}
	}
	return -1, nil
}

// sanitizePCT runs mod once under PCT schedule seed with san reset and
// attached: the recycled-sanitizer variant of SanitizeRun for the search
// and sweep loops. san must come from sanPool (or New) and its reports
// are only valid until the caller's next Reset. The run goes through the
// engine's job path under its seed, so a recording of it names the
// schedule it replays.
func sanitizePCT(san *sanitizer.Sanitizer, mod *mir.Module, seed, maxSteps int64) *interp.Result {
	san.Reset(mod)
	cfg := pctCfg(seed, maxSteps)
	cfg.Sanitizer = san
	r := eng.RunJob(mod, cfg, replay.Meta{Label: mod.Name + "-sanitize", Seed: seed})
	san.RecordMetrics(reg)
	return r
}

// sanitizeBudget is the PCT-schedule budget Table 3's detection column
// searches per bug; every benchmark's bug surfaces well within it.
const sanitizeBudget = 5

// SanitizerVerdict classifies one benchmark bug for the Table 3 detection
// column, searching up to budget schedules.
//
// Deadlock bugs are predicted on the unhardened forced program: the
// lock-order edges are collected whether or not the schedule actually
// deadlocks. Race bugs are observed on the survival-hardened forced
// program: an order-violation failure kills the unhardened run after the
// premature read and before the late write, so only recovery — rolling the
// reader back until the writer lands — lets both sides of the race execute
// in one trace.
func SanitizerVerdict(b *bugs.Bug, budget int64) string {
	p := prep(b)
	mod := p.forcedSurv.Module
	if b.Symptom == mir.FailHang {
		mod = p.forced
	}
	_, rs := SanitizeSearch(mod, budget, expMaxSteps)
	return sanitizer.Verdict(rs)
}

// matchesInfo checks one sanitizer report against a template's
// ground-truth label; any mismatch is a false positive.
func matchesInfo(r sanitizer.Report, info *mirgen.BugInfo) error {
	switch info.Kind {
	case mirgen.BugOrder, mirgen.BugAtomicity,
		mirgen.BugLostSignal, mirgen.BugMissedBroadcast,
		mirgen.BugChannelDeadlock, mirgen.BugCASABA:
		// The synchronization templates are labelled by a data race too:
		// the predicate/stop-flag publish (or the cas cell's plain reads)
		// is deliberately unsynchronized, and no other report kind is
		// acceptable.
		if r.Kind == sanitizer.KindDeadlock {
			return fmt.Errorf("deadlock report for a %v template", info.Kind)
		}
		if r.Global != info.Global {
			return fmt.Errorf("race on %q, want %q", r.Location(), info.Global)
		}
	case mirgen.BugLockInversion:
		if r.Kind != sanitizer.KindDeadlock {
			return fmt.Errorf("%v report for a lock-inversion template", r.Kind)
		}
		got := map[string]bool{r.LockA: true, r.LockB: true}
		if !got[info.LockA] || !got[info.LockB] {
			return fmt.Errorf("deadlock on (%s,%s), want (%s,%s)",
				r.LockA, r.LockB, info.LockA, info.LockB)
		}
	default:
		return fmt.Errorf("unexpected template kind %v", info.Kind)
	}
	return nil
}

// wantOutputs is the template's schedule-independent observable.
func wantOutputs(info *mirgen.BugInfo) []interp.OutputEvent {
	switch info.Kind {
	case mirgen.BugAtomicity, mirgen.BugLockInversion, mirgen.BugCASABA:
		return []interp.OutputEvent{{Text: "bug", Value: 2}}
	case mirgen.BugLostSignal, mirgen.BugMissedBroadcast, mirgen.BugChannelDeadlock:
		return []interp.OutputEvent{{Text: "bug", Value: 1}}
	}
	return nil
}

// CrossCheckTemplate validates one injected-bug generator configuration
// three ways, returning the first violation:
//
//  1. detection — some PCT schedule in the budget makes the sanitizer flag
//     the injected bug, and every report across the whole search matches
//     the ground-truth label (no false positives). Order violations kill
//     the unhardened run before the late write, so when the plain search
//     comes up empty the survival-hardened program — whose recovery lets
//     both accesses execute — is searched too.
//  2. clean twin — the same generator configuration without the injected
//     bug completes under every schedule with zero sanitizer reports.
//  3. recovery — the survival-hardened program completes under every
//     random and every PCT schedule in the budget with the template's
//     observable output intact.
func CrossCheckTemplate(genCfg mirgen.Config, budget int64) error {
	const maxSteps = 20_000_000
	mod, info := mirgen.GenWithInfo(genCfg)
	if info == nil {
		return fmt.Errorf("configuration injects no bug")
	}
	h, err := core.Harden(mod, core.DefaultOptions())
	if err != nil {
		return fmt.Errorf("harden: %w", err)
	}

	// Leg 1: detection with zero false positives. One pooled sanitizer
	// serves the whole sweep; reports are consumed before the next Reset.
	san := sanPool.Get().(*sanitizer.Sanitizer)
	defer sanPool.Put(san)
	found := false
	for seed := int64(0); seed < budget; seed++ {
		sanitizePCT(san, mod, seed, maxSteps)
		for _, r := range san.Reports() {
			if err := matchesInfo(r, info); err != nil {
				return fmt.Errorf("%v template, schedule %d: false positive: %v", info.Kind, seed, err)
			}
			found = true
		}
	}
	if !found {
		for seed := int64(0); seed < budget; seed++ {
			sanitizePCT(san, h.Module, seed, maxSteps)
			for _, r := range san.Reports() {
				if err := matchesInfo(r, info); err != nil {
					return fmt.Errorf("%v template, hardened schedule %d: false positive: %v",
						info.Kind, seed, err)
				}
				found = true
			}
		}
	}
	if !found {
		return fmt.Errorf("%v template: no PCT schedule in %d flagged the injected bug",
			info.Kind, budget)
	}

	// Leg 2: the failure-free twin stays clean.
	cleanCfg := genCfg
	cleanCfg.Bug = mirgen.BugNone
	cleanCfg.InjectBug = false
	cleanMod := mirgen.Gen(cleanCfg)
	for seed := int64(0); seed < budget; seed++ {
		r := sanitizePCT(san, cleanMod, seed, maxSteps)
		if r.Failure != nil {
			return fmt.Errorf("clean twin, schedule %d: failed: %v", seed, r.Failure)
		}
		if rs := san.Reports(); len(rs) > 0 {
			return fmt.Errorf("clean twin, schedule %d: false positive: %v", seed, rs[0])
		}
	}

	// Leg 3: hardened recovery preserves the observable output.
	want := wantOutputs(info)
	for seed := int64(0); seed < budget; seed++ {
		for _, s := range []sched.Scheduler{sched.NewRandom(seed), sched.NewSearchPCT(seed)} {
			r := interp.RunModule(h.Module, interp.Config{
				Sched:         s,
				MaxSteps:      maxSteps,
				CollectOutput: true,
			})
			if !r.Completed {
				return fmt.Errorf("%v template, %s schedule %d: hardened run did not recover: %v",
					info.Kind, s.Name(), seed, r.Failure)
			}
			if len(r.Output) != len(want) {
				return fmt.Errorf("%v template, %s schedule %d: %d outputs, want %d",
					info.Kind, s.Name(), seed, len(r.Output), len(want))
			}
			for i := range want {
				if r.Output[i].Text != want[i].Text || r.Output[i].Value != want[i].Value {
					return fmt.Errorf("%v template, %s schedule %d: output[%d] = %q=%d, want %q=%d",
						info.Kind, s.Name(), seed, i, r.Output[i].Text, r.Output[i].Value,
						want[i].Text, want[i].Value)
				}
			}
		}
	}
	return nil
}
