package experiments

import (
	"fmt"

	"conair/internal/bugs"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/replay"
	"conair/internal/runner"
	"conair/internal/sanitizer"
	"conair/internal/sched"
)

// This file extends Table 3 to the labelled real-bug corpus
// (internal/bugs.Corpus): hand-written MIR models of shipped concurrency
// bugs, each carrying the same three-way oracle as the mirgen templates —
// sanitizer detection with zero false positives, a report-free fixed
// twin, and hardened recovery with the observable output intact.

// CorpusRow is one corpus entry in Table 3's recovery/detection format.
// The corpus models carry no paper numbers, so the overhead columns are
// omitted; the fixed twin is the shipped upstream fix rather than a
// timing-reversed variant, which is what FixedTwinClean certifies.
type CorpusRow struct {
	Name, AppType, RootCause string
	// Symptom is the designed failure kind of the buggy build.
	Symptom string
	// RecoveredFix / RecoveredSurvival: all forced runs completed.
	RecoveredFix, RecoveredSurvival bool
	// FixedTwinClean: the modelled upstream fix completed every run with
	// zero sanitizer reports.
	FixedTwinClean bool
	// Runs is how many forced runs each mode was tested with.
	Runs int
	// Sanitizer is the detection verdict from the PCT search.
	Sanitizer string
}

// corpusTruth is the corpus ground truth the cross-check matches reports
// and outputs against: the one documented racy global per model and the
// schedule-independent post-join observable.
var corpusTruth = map[string]struct {
	Global string
	Out    interp.OutputEvent
}{
	"LGResults":    {"ctx_cancel", interp.OutputEvent{Text: "cancelled", Value: 1}},
	"LGFrontier":   {"frontier", interp.OutputEvent{Text: "frontier", Value: 7}},
	"LGCompletion": {"wf_result", interp.OutputEvent{Text: "result", Value: 42}},
}

// Table3Corpus regenerates the corpus extension of Table 3. runs is the
// number of forced-failure runs per hardening mode, as in Table3.
func Table3Corpus(runs int) []CorpusRow {
	bs := bugs.Corpus()
	return runner.Map(eng, len(bs), func(bi int) CorpusRow {
		b := bs[bi]
		p := prep(b)
		row := CorpusRow{
			Name:      b.Name,
			AppType:   b.AppType,
			RootCause: b.RootCause,
			Symptom:   b.Symptom.String(),
			Runs:      runs,
			Sanitizer: SanitizerVerdict(b, sanitizeBudget),
		}
		row.RecoveredFix = eng.AllComplete(p.forcedFix.Module, runs, expMaxSteps)
		row.RecoveredSurvival = eng.AllComplete(p.forcedSurv.Module, runs, expMaxSteps)
		row.FixedTwinClean = CrossCheckCorpus(b, int64(min(runs, 10))) == nil
		return row
	})
}

// CrossCheckCorpus validates one corpus model the same three ways
// CrossCheckTemplate validates a mirgen template, returning the first
// violation:
//
//  1. detection — some PCT schedule in the budget makes the sanitizer
//     flag the model's documented racy global, and every report across
//     the search names that global (no false positives, no spurious
//     deadlock predictions). Assert-symptom models are searched through
//     their survival-hardened build: the assert kills the raw run before
//     the racing write, so only recovery lets both sides execute.
//  2. fixed twin — the modelled upstream fix completes under every
//     schedule with zero sanitizer reports.
//  3. recovery — the survival-hardened buggy build completes under every
//     random and every PCT schedule in the budget with the post-join
//     observable intact.
func CrossCheckCorpus(b *bugs.Bug, budget int64) error {
	truth, ok := corpusTruth[b.Name]
	if !ok {
		return fmt.Errorf("%s: corpus model has no ground-truth label", b.Name)
	}
	p := prep(b)

	// Leg 1: detection with zero false positives. One pooled sanitizer
	// serves the whole sweep; reports are consumed before the next Reset.
	san := sanPool.Get().(*sanitizer.Sanitizer)
	defer sanPool.Put(san)
	searchMod := p.forcedSurv.Module
	if b.Symptom == mir.FailHang {
		searchMod = p.forced
	}
	found := false
	for seed := int64(0); seed < budget; seed++ {
		sanitizePCT(san, searchMod, seed, expMaxSteps)
		for _, r := range san.Reports() {
			if r.Kind == sanitizer.KindDeadlock {
				return fmt.Errorf("%s, schedule %d: spurious deadlock prediction (%s,%s)",
					b.Name, seed, r.LockA, r.LockB)
			}
			if r.Global != truth.Global {
				return fmt.Errorf("%s, schedule %d: false positive: race on %q, want %q",
					b.Name, seed, r.Location(), truth.Global)
			}
			found = true
		}
	}
	if !found {
		return fmt.Errorf("%s: no PCT schedule in %d flagged the documented race on %q",
			b.Name, budget, truth.Global)
	}

	// Leg 2: the modelled upstream fix soaks clean.
	for seed := int64(0); seed < budget; seed++ {
		r := sanitizePCT(san, p.clean, seed, expMaxSteps)
		if !r.Completed {
			return fmt.Errorf("%s fixed twin, schedule %d: failed: %v", b.Name, seed, r.Failure)
		}
		if rs := san.Reports(); len(rs) > 0 {
			return fmt.Errorf("%s fixed twin, schedule %d: false positive: %v",
				b.Name, seed, rs[0])
		}
	}

	// Leg 3: hardened recovery preserves the observable output.
	for seed := int64(0); seed < budget; seed++ {
		for _, s := range []sched.Scheduler{sched.NewRandom(seed), sched.NewSearchPCT(seed)} {
			r := eng.RunJob(p.forcedSurv.Module, interp.Config{
				Sched:         s,
				MaxSteps:      expMaxSteps,
				CollectOutput: true,
			}, replay.Meta{Label: b.Name + "-corpus", Seed: seed})
			if !r.Completed {
				return fmt.Errorf("%s, %s schedule %d: hardened build did not recover: %v",
					b.Name, s.Name(), seed, r.Failure)
			}
			if len(r.Output) != 1 || r.Output[0].Text != truth.Out.Text ||
				r.Output[0].Value != truth.Out.Value {
				return fmt.Errorf("%s, %s schedule %d: observable changed: %+v, want %s=%d",
					b.Name, s.Name(), seed, r.Output, truth.Out.Text, truth.Out.Value)
			}
		}
	}
	return nil
}
