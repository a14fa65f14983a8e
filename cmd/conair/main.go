// Command conair hardens a MIR program with ConAir's rollback-recovery
// transformation and writes the transformed program, then runs, traces,
// sanitizes, records and replays programs: the whole workflow is one tool.
//
// Usage:
//
//	conair [-mode survival|fix] [-site func:op:nth] [-o out.mir]
//	       [-no-opt] [-no-interproc] [-policy extended|basic]
//	       [-max-retry N] [-lock-timeout N] prog.mir
//
// In fix mode, -site names the failing statement as function:opcode:index,
// e.g. -site "reporter:assert:0" for the first assert in reporter, or
// "worker:load:2" for its third pointer dereference.
//
// Run mode executes a program (typically a hardened one) under one seed,
// prints its output to stdout and, unless -q is set, the run statistics
// and recovered episodes to stderr:
//
//	conair -run [-seed N] [-sched random|pct|rr] [-max-steps N] [-sanitize]
//	       [-trace out.json] [-trace-jsonl events.jsonl] [-q] prog.mir
//
// It exits with the program's exit code, or 1 on a detected failure or,
// with -sanitize, on a race/deadlock report. -trace and -trace-jsonl write
// the run's events as a Chrome trace and as JSON lines (-trace-jsonl
// /dev/stderr streams them to the terminal).
//
// Trace mode replays one benchmark (bug, seed) pair deterministically with
// the observability sink attached, writes a Chrome trace_event JSON file
// (loadable in chrome://tracing or https://ui.perfetto.dev), and prints the
// recovery-episode timeline:
//
//	conair -trace out.json -bug MySQL1 [-seed 7] [-mode survival|fix]
//	       [-clean] [-trace-jsonl events.jsonl] [-trace-buf N]
//
// Sanitize mode (without -run) searches adversarial PCT schedules with the
// dynamic race/deadlock sanitizer attached and prints every report — the
// detect-before-recover front-end to the hardening transformation:
//
//	conair -sanitize [-sanitize-budget N] [-max-steps N] prog.mir
//
// It exits 1 when the sanitizer reports anything, 0 when the whole
// schedule budget stays clean. Record, replay and minimize modes are
// described in record.go.
//
// -sched picks the scheduler of run, trace and record modes: random
// (the default), pct (the sanitizer search's PCT policy) or rr
// (round-robin, switching threads every step). -max-steps is the
// interpreter step budget of every mode; 0 keeps each mode's default:
// 20 M per sanitize schedule, 200 M for trace and record, and the
// interpreter's default for run mode.
//
// With -serve ADDR every mode also exposes the live telemetry plane
// (/metrics, /runs, /events, /healthz, /debug/pprof/): completed runs
// land in the run registry, run, trace and sanitize runs carry always-on
// flight recordings (a failing run is downloadable as a replayable .cnr
// at /runs/{id}/recording), and the server keeps serving after the work
// completes until interrupted.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"conair/internal/analysis"
	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/sanitizer"
	"conair/internal/sched"
)

func main() {
	mode := flag.String("mode", "survival", "survival or fix")
	site := flag.String("site", "", "fix-mode failure site: func:op:nth (op: assert, output, load, store, lock)")
	out := flag.String("o", "", "output file (default: stdout)")
	noOpt := flag.Bool("no-opt", false, "disable the unrecoverable-site pruning (paper §4.2)")
	noInterproc := flag.Bool("no-interproc", false, "disable inter-procedural recovery (paper §4.3)")
	policy := flag.String("policy", "extended", "region policy: extended (§4.1) or basic (§3.2)")
	maxRetry := flag.Int64("max-retry", 0, "recovery retry bound (default one million)")
	lockTimeout := flag.Int("lock-timeout", 0, "timed-lock timeout in steps")
	guardOutputs := flag.Bool("guard-outputs", false, "auto-insert output-correctness oracles (paper §3.4)")
	pruneSafe := flag.Bool("prune-safe-sites", false, "drop provably-safe dereference sites (paper §3.4)")
	quiet := flag.Bool("q", false, "suppress the report (in run mode: the run statistics)")
	run := flag.Bool("run", false, "run mode: execute prog.mir under one seed and exit with its exit code (1 on a failure or sanitizer report)")
	trace := flag.String("trace", "", "trace and run modes: write a Chrome trace_event JSON file")
	bug := flag.String("bug", "", "trace and record modes: benchmark bug (e.g. MySQL1)")
	seed := flag.Int64("seed", 7, "run, trace and record modes: scheduler seed (record: the first seed searched)")
	schedName := flag.String("sched", "random", "run, trace and record modes: scheduler (random, pct or rr)")
	clean := flag.Bool("clean", false, "trace mode: replay the clean full workload instead of the forced-failure light one")
	traceJSONL := flag.String("trace-jsonl", "", "trace and run modes: also write raw events as JSONL (/dev/stderr for the terminal)")
	traceBuf := flag.Int("trace-buf", 1<<20, "trace and run modes: event ring-buffer capacity")
	sanitize := flag.Bool("sanitize", false, "attach the race/deadlock sanitizer: to the one run with -run, else search PCT schedules instead of hardening")
	sanitizeBudget := flag.Int64("sanitize-budget", 20, "sanitize mode: number of PCT schedule seeds to search")
	maxSteps := flag.Int64("max-steps", 0, fmt.Sprintf("interpreter step budget (0 = the mode's default: 20M per sanitize schedule, 200M for trace and record, %dM for run)", interp.DefaultMaxSteps/1_000_000))
	record := flag.String("record", "", "record mode: write a replayable schedule recording (.cnr) of one run of -bug or prog.mir")
	recordSearch := flag.Int64("record-search", 1, "record mode: try up to N seeds from -seed, keep the first failing run")
	recordHardened := flag.Bool("record-hardened", false, "record mode: record the survival-hardened program")
	replayPath := flag.String("replay", "", "replay mode: reproduce a schedule recording (.cnr) and verify bit-identity")
	minimize := flag.String("minimize", "", "minimize mode: ddmin-shrink a failing recording (.cnr) to a minimal schedule")
	probeBudget := flag.Int("probe-budget", 0, "minimize mode: probe replay budget (0 = default)")
	minTrace := flag.String("min-trace", "", "replay/minimize mode: write a Chrome trace of the (minimized) schedule")
	serveAddr := flag.String("serve", "", "serve live telemetry on host:port (keeps serving after the work completes; ^C to exit)")
	flag.Parse()

	// stepBudget is -max-steps, or the current mode's default when it is 0.
	stepBudget := func(def int64) int64 {
		if *maxSteps > 0 {
			return *maxSteps
		}
		return def
	}

	if *serveAddr != "" {
		startTelemetry(*serveAddr)
		defer waitTelemetry()
	}

	if *record != "" || *replayPath != "" || *minimize != "" {
		modFile := ""
		if flag.NArg() == 1 {
			modFile = flag.Arg(0)
		} else if flag.NArg() > 1 {
			fatal(fmt.Errorf("record/replay/minimize modes take at most one prog.mir argument"))
		}
		var err error
		switch {
		case *record != "":
			if *bug == "" && modFile == "" {
				fatal(fmt.Errorf("-record needs -bug NAME or a prog.mir argument"))
			}
			err = runRecord(recordOpts{
				out: *record, bug: *bug, file: modFile, hardened: *recordHardened,
				schedN: *schedName, seed: *seed, search: *recordSearch,
				maxSteps: stepBudget(200_000_000), quiet: *quiet,
			})
		case *replayPath != "":
			err = runReplay(*replayPath, modFile, *minTrace, *quiet)
		default:
			err = runMinimize(*minimize, modFile, *out, *minTrace, *probeBudget, *quiet)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	if *run {
		if flag.NArg() != 1 {
			usage()
		}
		code, err := runProgram(runOpts{
			file: flag.Arg(0), schedN: *schedName, seed: *seed,
			maxSteps: *maxSteps, sanitize: *sanitize,
			trace: *trace, jsonl: *traceJSONL, bufCap: *traceBuf, quiet: *quiet,
		}, os.Stdout, os.Stderr)
		if err != nil {
			fatal(err)
		}
		waitTelemetry()
		os.Exit(code)
	}

	if *trace != "" || *bug != "" {
		if *trace == "" || *bug == "" {
			fatal(fmt.Errorf("trace mode needs both -trace out.json and -bug NAME"))
		}
		// The hardening default is survival; fix mode replays the
		// bug-specific hardened variant the evaluation tables use.
		if err := runTrace(traceOpts{
			bug: *bug, schedN: *schedName, seed: *seed, mode: *mode, clean: *clean,
			out: *trace, jsonl: *traceJSONL, bufCap: *traceBuf,
			maxSteps: stepBudget(200_000_000), quiet: *quiet,
		}); err != nil {
			fatal(err)
		}
		return
	}

	if flag.NArg() != 1 {
		usage()
	}
	m, err := loadModule(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	if *sanitize {
		if runSanitize(m, *sanitizeBudget, stepBudget(20_000_000), *quiet) {
			waitTelemetry()
			os.Exit(1)
		}
		return
	}

	opts := core.DefaultOptions()
	opts.Optimize = !*noOpt
	opts.Interproc = !*noInterproc
	switch *policy {
	case "extended":
		opts.Policy = mir.PolicyExtended
	case "basic":
		opts.Policy = mir.PolicyBasic
	default:
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}
	opts.Transform.MaxRetry = *maxRetry
	opts.Transform.LockTimeout = *lockTimeout
	opts.GuardOutputs = *guardOutputs
	opts.PruneSafeSites = *pruneSafe

	switch *mode {
	case "survival":
	case "fix":
		pos, err := parseSite(m, *site)
		if err != nil {
			fatal(err)
		}
		opts.Mode = analysis.Fix
		opts.FixSite = pos
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}

	h, err := core.Harden(m, opts)
	if err != nil {
		fatal(err)
	}

	text := mir.Print(h.Module)
	if *out == "" {
		fmt.Print(text)
	} else if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
		fatal(err)
	}

	if !*quiet {
		r := &h.Report
		fmt.Fprintf(os.Stderr,
			"conair: %s mode, %d failure sites (%d assert, %d wrong-output, %d segfault, %d deadlock)\n",
			r.Mode, r.Census.Total(), r.Census.Assert, r.Census.WrongOutput,
			r.Census.Segfault, r.Census.Deadlock)
		fmt.Fprintf(os.Stderr,
			"conair: %d reexecution points planted, %d sites with recovery, %d pruned, %d inter-procedural\n",
			r.StaticReexecPoints, r.RecoverySites, r.PrunedSites, r.InterprocSites)
		fmt.Fprintf(os.Stderr, "conair: analysis %v, transform %v\n",
			r.AnalysisTime, r.TransformTime)
	}
}

// runSanitize searches PCT schedule seeds 0..budget-1 with the sanitizer
// attached and prints every distinct report. Reports whether anything was
// found (the caller exits 1). With -serve, each schedule runs under the
// flight recorder and lands in the run registry, so the schedule behind a
// report is downloadable as a replayable .cnr.
func runSanitize(m *mir.Module, budget, maxSteps int64, quiet bool) bool {
	seen := map[string]bool{}
	san := sanitizer.New(m)
	for seed := int64(0); seed < budget; seed++ {
		san.Reset(m)
		cfg := interp.Config{
			Sched:     sched.NewSearchPCT(seed),
			MaxSteps:  maxSteps,
			Sanitizer: san,
		}
		runLive(m, cfg, m.Name+"-sanitize", seed)
		for _, rep := range san.Reports() {
			s := rep.String()
			if !seen[s] {
				seen[s] = true
				fmt.Printf("schedule %d: %s\n", seed, s)
			}
		}
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "conair: sanitize: %d schedules searched, %d distinct reports\n",
			max(budget, 0), len(seen))
	}
	return len(seen) > 0
}

// parseSite resolves "func:op:nth".
func parseSite(m *mir.Module, s string) (mir.Pos, error) {
	if s == "" {
		return mir.Pos{}, fmt.Errorf("fix mode requires -site func:op:nth")
	}
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return mir.Pos{}, fmt.Errorf("bad -site %q: want func:op:nth", s)
	}
	var op mir.Op
	switch parts[1] {
	case "assert", "oracle":
		op = mir.OpAssert
	case "output":
		op = mir.OpOutput
	case "load":
		op = mir.OpLoad
	case "store":
		op = mir.OpStore
	case "lock":
		op = mir.OpLock
	default:
		return mir.Pos{}, fmt.Errorf("bad -site opcode %q", parts[1])
	}
	nth, err := strconv.Atoi(parts[2])
	if err != nil {
		return mir.Pos{}, fmt.Errorf("bad -site index %q: %v", parts[2], err)
	}
	return analysis.FindSite(m, parts[0], op, nth)
}

// loadModule reads and parses a .mir file.
func loadModule(path string) (*mir.Module, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return mir.Parse(string(src))
}

// newSched builds the -sched scheduler for one seed.
func newSched(name string, seed int64) (sched.Scheduler, error) {
	switch name {
	case "random":
		return sched.NewRandom(seed), nil
	case "pct":
		return sched.NewSearchPCT(seed), nil
	case "rr":
		return sched.NewRoundRobin(1, seed), nil
	}
	return nil, fmt.Errorf("unknown scheduler %q (want random, pct or rr)", name)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: conair [flags] prog.mir")
	flag.PrintDefaults()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "conair:", err)
	os.Exit(2)
}
