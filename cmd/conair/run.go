package main

import (
	"fmt"
	"io"

	"conair/internal/interp"
	"conair/internal/obs"
	"conair/internal/sanitizer"
)

// runOpts configures a -run execution.
type runOpts struct {
	file     string // .mir path
	schedN   string // random, pct or rr
	seed     int64
	maxSteps int64  // 0 = interp.DefaultMaxSteps
	sanitize bool   // attach the race/deadlock sanitizer
	trace    string // optional Chrome trace_event JSON path
	jsonl    string // optional raw JSONL event path
	bufCap   int    // tracer ring capacity
	quiet    bool   // no run statistics
}

// runProgram executes one program under one seed. It prints the program's
// output to stdout and, unless quiet, the run statistics and recovered
// episodes to stderr, followed by any sanitizer report and the failure.
// The returned exit code is the program's own on completion, or 1 on a
// failure or a sanitizer report. Under -serve the run is armed with the
// flight recorder and lands in the run registry.
func runProgram(o runOpts, stdout, stderr io.Writer) (int, error) {
	m, err := loadModule(o.file)
	if err != nil {
		return 0, err
	}
	if m.Main() < 0 {
		return 0, fmt.Errorf("%s: no main function", m.Name)
	}
	s, err := newSched(o.schedN, o.seed)
	if err != nil {
		return 0, err
	}
	cfg := interp.Config{Sched: s, MaxSteps: o.maxSteps, CollectOutput: true}
	var tr *obs.Tracer
	if o.trace != "" || o.jsonl != "" {
		tr = obs.NewTracer(o.bufCap)
		cfg.Sink = tr
	}
	var san *sanitizer.Sanitizer
	if o.sanitize {
		san = sanitizer.New(m)
		cfg.Sanitizer = san
	}

	r := runLive(m, cfg, m.Name, o.seed)

	if tr != nil {
		if err := writeEvents(tr.Events(), o.trace, o.jsonl); err != nil {
			return 0, err
		}
		if d := tr.Dropped(); d > 0 {
			fmt.Fprintf(stderr, "conair: trace ring dropped %d early events\n", d)
		}
	}
	for _, out := range r.Output {
		fmt.Fprintf(stdout, "%s: %d\n", out.Text, out.Value)
	}
	if !o.quiet {
		fmt.Fprintf(stderr, "steps=%d threads=%d checkpoints=%d rollbacks=%d\n",
			r.Stats.Steps, r.Stats.ThreadsSpawned, r.Stats.Checkpoints, r.Stats.Rollbacks)
		for _, e := range r.RecoveredEpisodes() {
			fmt.Fprintf(stderr, "recovered site %d on thread %d: %d retries, %d steps\n",
				e.Site, e.Thread, e.Retries, e.Duration())
		}
	}
	code := int(r.ExitCode & 0x7f)
	if san != nil {
		for _, rep := range san.Reports() {
			fmt.Fprintln(stderr, "conair: sanitizer:", rep)
			code = 1
		}
		if n := san.Truncated(); n > 0 {
			fmt.Fprintf(stderr, "conair: sanitizer: %d further reports truncated\n", n)
		}
	}
	if r.Failure != nil {
		fmt.Fprintln(stderr, r.Failure.Error())
		code = 1
	}
	return code, nil
}
