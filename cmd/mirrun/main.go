// Command mirrun executes a MIR program under the deterministic
// multi-threaded interpreter.
//
// Usage:
//
//	mirrun [-seed N] [-sched random|rr] [-quantum N] [-max-steps N]
//	       [-stats] [-trace] [-trace-json out.json] [-sanitize]
//	       [-record out.cnr] prog.mir
//	mirrun -replay rec.cnr [flags] [prog.mir]
//
// The exit status is the program's exit code on completion, or 1 on a
// detected failure (which is printed to stderr). With -sanitize the run
// is watched by the dynamic race/deadlock sanitizer; reports go to
// stderr and force exit status 1 even when the program itself succeeds.
//
// -trace writes the run's structured trace events (scheduling decisions,
// checkpoints, rollbacks, recovery episodes, lock and thread lifecycle,
// failures, outputs) to stderr as JSON lines; -trace-json writes the same
// events as a Chrome trace. Both keep the newest obs.DefaultTracerCap
// events.
//
// -record captures the run's scheduler decision stream as a replayable
// artifact; -replay reproduces such an artifact bit-identically (the
// program comes from the artifact itself unless a prog.mir is given) and
// warns on any divergence from the recorded fingerprint.
//
// -serve ADDR exposes the live telemetry plane (/metrics, /runs,
// /events, /healthz, /debug/pprof/). The run lands in the run registry
// with its schedule recording — live runs are armed with the always-on
// flight recorder, so a failure is downloadable as a replayable .cnr at
// /runs/1/recording even without -record — and the server keeps serving
// after the program finishes until interrupted.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/obs"
	"conair/internal/replay"
	"conair/internal/runner"
	"conair/internal/sanitizer"
	"conair/internal/sched"
)

func main() {
	seed := flag.Int64("seed", 1, "scheduler seed")
	schedName := flag.String("sched", "random", "scheduler: random or rr")
	quantum := flag.Int64("quantum", 1, "round-robin quantum (with -sched rr)")
	maxSteps := flag.Int64("max-steps", 0, "step limit (0 = default)")
	stats := flag.Bool("stats", false, "print run statistics")
	trace := flag.Bool("trace", false, "write the run's trace events to stderr as JSON lines")
	traceJSON := flag.String("trace-json", "", "write a Chrome trace_event JSON file of the run")
	sanitize := flag.Bool("sanitize", false, "attach the dynamic race/deadlock sanitizer")
	record := flag.String("record", "", "write a replayable schedule recording (.cnr) of the run")
	replayPath := flag.String("replay", "", "replay a schedule recording (.cnr) instead of running live")
	serveAddr := flag.String("serve", "", "serve live telemetry on host:port (keeps serving after the run completes; ^C to exit)")
	flag.Parse()

	if *serveAddr != "" {
		startTelemetry(*serveAddr)
	}

	var (
		m   *mir.Module
		rec *replay.Recording
		err error
	)
	switch {
	case *replayPath != "":
		if rec, err = replay.ReadFile(*replayPath); err != nil {
			fatal(err)
		}
		if flag.NArg() > 1 {
			fatal(fmt.Errorf("-replay takes at most one prog.mir argument"))
		}
		if flag.NArg() == 1 {
			if m = loadModule(flag.Arg(0)); m != nil {
				if err := rec.CheckModule(m); err != nil {
					fatal(err)
				}
			}
		} else if m, err = rec.Module(); err != nil {
			fatal(err)
		}
	case flag.NArg() != 1:
		fmt.Fprintln(os.Stderr, "usage: mirrun [flags] prog.mir")
		flag.PrintDefaults()
		os.Exit(2)
	default:
		m = loadModule(flag.Arg(0))
	}
	if m.Main() < 0 {
		fatal(fmt.Errorf("%s: no main function", m.Name))
	}

	var (
		s  sched.Scheduler
		sr *sched.SegmentReplay
	)
	if rec != nil {
		sr = sched.NewSegmentReplay(rec.Segments, rec.Intns)
		s = sr
	} else {
		switch *schedName {
		case "random":
			s = sched.NewRandom(*seed)
		case "rr":
			s = sched.NewRoundRobin(*quantum, *seed)
		default:
			fatal(fmt.Errorf("unknown scheduler %q", *schedName))
		}
	}

	cfg := interp.Config{Sched: s, MaxSteps: *maxSteps, CollectOutput: true}
	if rec != nil {
		// Replay under the recorded knobs; CollectOutput stays on (it is
		// observation-only and lets the replay print the program's output).
		cfg.MaxSteps = rec.MaxSteps
		cfg.MaxThreads = rec.MaxThreads
		cfg.NoDeadlockCycles = rec.NoDeadlockCycles
	}
	// -record captures into a ring that never wraps. Under -serve a live
	// run without an explicit recording is armed with the always-on
	// flight recorder, so a failure still yields a replayable artifact at
	// /runs/1/recording.
	var flight *replay.FlightCapture
	switch {
	case *record != "":
		if rec != nil {
			fatal(fmt.Errorf("-record and -replay are mutually exclusive"))
		}
		cfg, flight = replay.CaptureFlight(m, cfg, replay.Meta{Seed: *seed, Label: "mirrun"}, math.MaxInt)
	case telemetry != nil && rec == nil:
		cfg, flight = replay.CaptureFlight(m, cfg, replay.Meta{Seed: *seed, Label: m.Name}, runner.DefaultFlightLimit)
	}
	var sink *obs.Tracer
	if *trace || *traceJSON != "" {
		sink = obs.NewTracer(obs.DefaultTracerCap)
		cfg.Sink = sink
	}
	var san *sanitizer.Sanitizer
	if *sanitize {
		san = sanitizer.New(m)
		cfg.Sanitizer = san
	}
	start := time.Now()
	r := interp.RunModule(m, cfg)
	elapsed := time.Since(start)
	var captured *replay.Recording
	if flight != nil {
		captured = flight.Finish(r)
	}
	if *record != "" {
		if err := replay.WriteFile(*record, captured); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mirrun: recorded %d picks, %d switches, outcome %s -> %s\n",
			captured.Picks(), captured.Switches(), captured.Fingerprint.FailureKey(), *record)
	}
	if telemetry != nil {
		regRec, seedVal, schedLabel := captured, *seed, *schedName
		if rec != nil {
			regRec, seedVal, schedLabel = rec, rec.Seed, rec.SchedName
		}
		registerRun(runner.RunInfo{
			Label: m.Name, Seed: seedVal, Sched: schedLabel,
			Elapsed: elapsed, Result: r, Recording: regRec,
			RecordingTruncated: flight != nil && regRec == nil,
		})
	}
	if sr != nil {
		if d := sr.Diverged(); d > 0 && !rec.Minimized {
			fmt.Fprintf(os.Stderr, "mirrun: replay diverged on %d decisions\n", d)
		} else if got := replay.FingerprintOf(r); got != rec.Fingerprint {
			fmt.Fprintf(os.Stderr, "mirrun: replay fingerprint mismatch (got %s, recorded %s)\n",
				got.FailureKey(), rec.Fingerprint.FailureKey())
		} else if *stats {
			fmt.Fprintln(os.Stderr, "mirrun: replay verified: bit-identical to the recorded run")
		}
	}
	if *trace {
		if err := obs.WriteJSONL(os.Stderr, sink.Events()); err != nil {
			fatal(err)
		}
	}
	if *traceJSON != "" {
		f, err := os.Create(*traceJSON)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteChromeTrace(f, sink.Events()); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if sink != nil {
		if d := sink.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "mirrun: trace ring dropped %d early events\n", d)
		}
	}
	for _, o := range r.Output {
		fmt.Printf("%s: %d\n", o.Text, o.Value)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "steps=%d threads=%d checkpoints=%d rollbacks=%d\n",
			r.Stats.Steps, r.Stats.ThreadsSpawned, r.Stats.Checkpoints, r.Stats.Rollbacks)
		for _, e := range r.RecoveredEpisodes() {
			fmt.Fprintf(os.Stderr, "recovered site %d on thread %d: %d retries, %d steps\n",
				e.Site, e.Thread, e.Retries, e.Duration())
		}
	}
	sanFailed := false
	if san != nil {
		for _, rep := range san.Reports() {
			fmt.Fprintln(os.Stderr, "mirrun: sanitizer:", rep)
			sanFailed = true
		}
		if n := san.Truncated(); n > 0 {
			fmt.Fprintf(os.Stderr, "mirrun: sanitizer: %d further reports truncated\n", n)
		}
	}
	code := int(r.ExitCode & 0x7f)
	if r.Failure != nil {
		fmt.Fprintln(os.Stderr, r.Failure.Error())
		code = 1
	} else if sanFailed {
		code = 1
	}
	waitTelemetry()
	os.Exit(code)
}

// loadModule reads and parses a .mir file, exiting on error.
func loadModule(path string) *mir.Module {
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	m, err := mir.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	return m
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mirrun:", err)
	os.Exit(2)
}
