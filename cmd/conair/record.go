package main

// Record-and-replay forensics modes:
//
//	conair -record out.cnr -bug MySQL1 [-record-hardened] [-seed N]
//	       [-record-search N] [-sched random|pct|rr] [-max-steps N]
//	conair -record out.cnr [flags] prog.mir
//	conair -replay rec.cnr [-min-trace out.json] [prog.mir]
//	conair -minimize rec.cnr [-o min.cnr] [-probe-budget N]
//	       [-min-trace out.json] [prog.mir]
//
// -record captures one run's scheduler decision stream as a replayable
// artifact (searching seeds until a failing run is found when
// -record-search > 1). -replay reproduces an artifact bit-identically and
// verifies it against the recorded fingerprint; the program comes from
// the artifact itself unless a prog.mir is given, which must hash to the
// recorded one. -minimize ddmin-shrinks a failing artifact to a minimal
// schedule — the few context switches that actually matter — and can
// emit a Chrome trace of the minimized run.

import (
	"fmt"
	"math"
	"time"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/obs"
	"conair/internal/replay"
	"conair/internal/runner"
)

// recordOpts configures a -record capture.
type recordOpts struct {
	out      string // artifact path
	bug      string // benchmark bug name ("" = positional prog.mir)
	file     string // positional .mir path when bug == ""
	hardened bool   // record the survival-hardened program
	schedN   string // random, pct or rr
	seed     int64
	search   int64 // try seeds seed..seed+search-1, keep first failing run
	maxSteps int64
	quiet    bool
}

// recordModule resolves the program a -record run executes.
func recordModule(o recordOpts) (*mir.Module, error) {
	var m *mir.Module
	if o.bug != "" {
		b, err := lookupBug(o.bug)
		if err != nil {
			return nil, err
		}
		m = b.Program(bugs.Config{Light: true, ForceBug: true})
	} else {
		var err error
		if m, err = loadModule(o.file); err != nil {
			return nil, err
		}
	}
	if o.hardened {
		h, err := core.Harden(m, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		m = h.Module
	}
	return m, nil
}

// runRecord captures a run and writes the artifact. With search > 1 it
// records seed after seed until one fails, keeping the failing run — the
// common "give me a reproducer" workflow.
func runRecord(o recordOpts) error {
	m, err := recordModule(o)
	if err != nil {
		return err
	}
	if o.search < 1 {
		o.search = 1
	}
	label := o.bug
	if label == "" {
		label = m.Name
	}
	var (
		res  *interp.Result
		rec  *replay.Recording
		seed int64
	)
	for i := int64(0); i < o.search; i++ {
		seed = o.seed + i
		s, err := newSched(o.schedN, seed)
		if err != nil {
			return err
		}
		// The flight recorder of a -record job never truncates.
		res, rec = runJob(m, interp.Config{Sched: s, MaxSteps: o.maxSteps},
			replay.Meta{Seed: seed, Label: label}, math.MaxInt)
		if res.Failure != nil {
			break
		}
	}
	if res.Failure == nil && o.search > 1 {
		return fmt.Errorf("no failing run in %d seeds starting at %d; recording the last completed run instead would lie — aborting", o.search, o.seed)
	}
	if rec == nil {
		return fmt.Errorf("the run under seed %d left no recording: %v", seed, res.Failure)
	}
	if err := replay.WriteFile(o.out, rec); err != nil {
		return err
	}
	if !o.quiet {
		fmt.Printf("recorded %s under %s seed %d: %d steps, %d picks, %d switches -> %s (%d bytes)\n",
			rec.ModuleName, rec.SchedName, rec.Seed, rec.Fingerprint.Steps,
			rec.Picks(), rec.Switches(), o.out, len(replay.Encode(rec)))
		fmt.Printf("outcome: %s\n", rec.Fingerprint.FailureKey())
	}
	return nil
}

// loadArtifact reads an artifact and resolves its module, preferring an
// explicit .mir override (hash-checked) over the embedded text.
func loadArtifact(path, modFile string) (*replay.Recording, *mir.Module, error) {
	rec, err := replay.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var m *mir.Module
	if modFile != "" {
		if m, err = loadModule(modFile); err != nil {
			return nil, nil, err
		}
		if err := rec.CheckModule(m); err != nil {
			return nil, nil, err
		}
	} else if m, err = rec.Module(); err != nil {
		return nil, nil, err
	}
	return rec, m, nil
}

// runReplay reproduces an artifact and verifies bit-identity, in one
// replay that also feeds the Chrome trace when traceOut is set.
func runReplay(path, modFile, traceOut string, quiet bool) error {
	rec, m, err := loadArtifact(path, modFile)
	if err != nil {
		return err
	}
	var opt replay.RunOptions
	if traceOut != "" {
		opt.Sink = obs.NewTracer(obs.DefaultTracerCap)
	}
	start := time.Now()
	r, sr := replay.Run(m, rec, opt)
	registerRun(runner.RunInfo{
		Label: rec.ModuleName, Seed: rec.Seed, Sched: rec.SchedName,
		Elapsed: time.Since(start), Result: r, Recording: rec,
	})
	if !quiet {
		min := ""
		if rec.Minimized {
			min = " (minimized)"
		}
		fmt.Printf("replayed %s%s: %d steps, %d picks, %d switches\n",
			rec.ModuleName, min, r.Stats.Steps, rec.Picks(), rec.Switches())
		fmt.Printf("outcome: %s\n", replay.FingerprintOf(r).FailureKey())
	}
	if traceOut != "" {
		if err := writeEvents(opt.Sink.Events(), traceOut, ""); err != nil {
			return err
		}
		if !quiet {
			fmt.Printf("trace -> %s\n", traceOut)
		}
	}
	if err := rec.CheckRun(r, sr); err != nil {
		return err
	}
	if !quiet {
		fmt.Println("verified: bit-identical to the recorded run")
	}
	return nil
}

// runMinimize ddmin-shrinks a failing artifact.
func runMinimize(path, modFile, out, traceOut string, budget int, quiet bool) error {
	rec, m, err := loadArtifact(path, modFile)
	if err != nil {
		return err
	}
	min, err := replay.Minimize(m, rec, replay.MinimizeOptions{ProbeBudget: budget})
	if err != nil {
		return err
	}
	// One replay of the minimized artifact puts it in the run registry,
	// downloadable alongside the original, and feeds the trace.
	var opt replay.RunOptions
	if traceOut != "" {
		opt.Sink = obs.NewTracer(obs.DefaultTracerCap)
	}
	if telemetryHook != nil || traceOut != "" {
		start := time.Now()
		r, _ := replay.Run(m, min.Rec, opt)
		registerRun(runner.RunInfo{
			Label: min.Rec.ModuleName + "-minimized", Seed: min.Rec.Seed, Sched: min.Rec.SchedName,
			Elapsed: time.Since(start), Result: r, Recording: min.Rec,
		})
	}
	if !quiet {
		fmt.Println(min)
		fmt.Printf("failure: %s\n", min.Rec.Fingerprint.FailureKey())
	}
	if out != "" {
		if err := replay.WriteFile(out, min.Rec); err != nil {
			return err
		}
		if !quiet {
			fmt.Printf("minimized artifact -> %s\n", out)
		}
	}
	if traceOut != "" {
		if err := writeEvents(opt.Sink.Events(), traceOut, ""); err != nil {
			return err
		}
		if !quiet {
			fmt.Printf("minimized trace -> %s\n", traceOut)
		}
	}
	return nil
}
