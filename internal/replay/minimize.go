package replay

// Schedule minimization: ddmin delta-debugging over the recorded segment
// stream. The insight that makes this work is that the tolerant
// SegmentReplay scheduler makes *every* edited stream a runnable,
// deterministic schedule — removing segments never wedges a probe, it
// just changes the interleaving — so the classic ddmin loop applies
// directly, with "the failure fingerprint key still matches" as the
// oracle. The result is the small set of context switches that actually
// matter for the bug, which is what a human reads in a postmortem.

import (
	"fmt"

	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/sched"
)

// MinimizeOptions bounds a minimization run.
type MinimizeOptions struct {
	// ProbeBudget caps the number of probe replays (0 = DefaultProbeBudget).
	// When the budget runs out minimization stops early and returns the
	// best stream found so far, with OneMinimal=false.
	ProbeBudget int
	// ProbeSteps is the per-probe step watchdog (0 = 4x the recorded run's
	// steps, at least MinProbeSteps). Edited schedules can run arbitrarily
	// longer than the original — e.g. when a removed switch breaks the
	// failure and the program spins — so every probe is step-bounded.
	// The watchdog never exceeds the recording's own step bound: a probe
	// past it would see behaviour the recorded run could not.
	ProbeSteps int64
}

// Defaults for MinimizeOptions zero values.
const (
	DefaultProbeBudget = 2000
	MinProbeSteps      = int64(100_000)
)

// Minimized is the outcome of a minimization.
type Minimized struct {
	// Rec is the minimized, replayable artifact (Minimized=true, same
	// module and knobs as the input, fingerprint of the minimized run).
	Rec *Recording
	// Probes is how many probe replays were spent.
	Probes int
	// OneMinimal reports that the singles pass completed within budget:
	// removing any single remaining segment loses the failure.
	OneMinimal bool

	SwitchesBefore, SwitchesAfter int
	SegmentsBefore, SegmentsAfter int
	PicksBefore, PicksAfter       int64
}

func (m *Minimized) String() string {
	return fmt.Sprintf("minimize: switches %d -> %d, segments %d -> %d, picks %d -> %d (%d probes, 1-minimal=%v)",
		m.SwitchesBefore, m.SwitchesAfter, m.SegmentsBefore, m.SegmentsAfter,
		m.PicksBefore, m.PicksAfter, m.Probes, m.OneMinimal)
}

func sumPicks(segs []sched.Segment) int64 {
	var n int64
	for _, s := range segs {
		n += s.N
	}
	return n
}

// cut returns segs with [start,end) removed, merged. It always allocates.
func cut(segs []sched.Segment, start, end int) []sched.Segment {
	out := make([]sched.Segment, 0, len(segs)-(end-start))
	out = append(out, segs[:start]...)
	out = append(out, segs[end:]...)
	return sched.MergeSegments(out)
}

// Minimize shrinks the recording's segment stream to a (locally) minimal
// schedule that still produces the same failure key. The input recording
// must be of a failed run. mod must match the recording's module hash.
func Minimize(mod *mir.Module, rec *Recording, opt MinimizeOptions) (*Minimized, error) {
	if !rec.Fingerprint.Failed {
		return nil, fmt.Errorf("replay: cannot minimize a recording of a completed run (nothing to reproduce)")
	}
	if err := rec.CheckModule(mod); err != nil {
		return nil, err
	}

	budget := opt.ProbeBudget
	if budget <= 0 {
		budget = DefaultProbeBudget
	}
	bound := rec.MaxSteps
	if bound <= 0 {
		bound = interp.DefaultMaxSteps
	}
	probeSteps := opt.ProbeSteps
	if probeSteps <= 0 {
		probeSteps = max(4*rec.Fingerprint.Steps, MinProbeSteps)
	}
	probeSteps = min(probeSteps, bound)

	m := &Minimized{
		SwitchesBefore: sched.Switches(rec.Segments),
		SegmentsBefore: len(sched.MergeSegments(rec.Segments)),
		PicksBefore:    rec.Picks(),
	}

	// probe replays a candidate stream under the step watchdog and reports
	// whether the original failure key reproduces; last keeps the run of
	// the last stream it accepted.
	var last *interp.Result
	probe := func(segs []sched.Segment) bool {
		m.Probes++
		if reg := metricsRegistry.Load(); reg != nil {
			reg.Counter("minimize_probes_total").Inc()
		}
		cand := *rec
		cand.Segments = segs
		r, _ := Run(mod, &cand, RunOptions{MaxSteps: probeSteps})
		if !FingerprintOf(r).SameFailure(rec.Fingerprint) {
			return false
		}
		last = r
		return true
	}

	cur := sched.MergeSegments(rec.Segments)
	if !probe(cur) {
		return nil, fmt.Errorf("replay: recording does not reproduce its failure %s under replay; refusing to minimize",
			rec.Fingerprint.FailureKey())
	}

	// ddmin over segments, removing complements: delete ever-smaller chunks
	// of the stream as long as the failure survives.
	n := 2
	for len(cur) >= 2 && m.Probes < budget {
		chunk := (len(cur) + n - 1) / n
		reduced := false
		for start := 0; start < len(cur) && m.Probes < budget; start += chunk {
			end := start + chunk
			if end > len(cur) {
				end = len(cur)
			}
			cand := cut(cur, start, end)
			if len(cand) == 0 {
				continue
			}
			if probe(cand) {
				cur = cand
				if n > 2 {
					n--
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(cur) {
				break
			}
			n *= 2
			if n > len(cur) {
				n = len(cur)
			}
		}
	}

	// Singles pass: re-try every single-segment removal until none helps.
	// On clean completion the result is 1-minimal by construction.
	for m.Probes < budget {
		reduced := false
		for i := 0; i < len(cur) && m.Probes < budget; i++ {
			if len(cur) == 1 {
				break
			}
			cand := cut(cur, i, i+1)
			if probe(cand) {
				cur = cand
				reduced = true
				i-- // the merged stream shifted left; retry this index
			}
		}
		if !reduced {
			m.OneMinimal = m.Probes < budget
			break
		}
	}

	// Stamp the minimized artifact's fingerprint from a run of cur under
	// the recording's own step budget, not the probe watchdog. The last
	// accepted probe replayed cur: when it failed before the watchdog, and
	// not by a hang, no bound took part and it is that run.
	out := *rec
	out.Segments = cur
	out.Minimized = true
	if last.Failure.Kind != mir.FailHang && last.Stats.Steps < probeSteps {
		out.Fingerprint = FingerprintOf(last)
	} else {
		r, _ := Run(mod, &out, RunOptions{})
		out.Fingerprint = FingerprintOf(r)
		if !out.Fingerprint.SameFailure(rec.Fingerprint) {
			// The watchdogged probe accepted a stream whose failure only
			// manifests under the watchdog, tighter than the recording's
			// bound (possible only when the original failure was itself a
			// step-limit hang). Keep the artifact honest by pinning the
			// probe budget into it.
			out.MaxSteps = probeSteps
			r, _ = Run(mod, &out, RunOptions{})
			out.Fingerprint = FingerprintOf(r)
		}
	}

	m.Rec = &out
	m.SwitchesAfter = sched.Switches(cur)
	m.SegmentsAfter = len(cur)
	m.PicksAfter = sumPicks(cur)
	return m, nil
}
