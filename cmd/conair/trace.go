package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/obs"
)

// traceOpts configures a -trace replay.
type traceOpts struct {
	bug      string // benchmark bug name (bugs.ByName)
	schedN   string // random, pct or rr
	seed     int64  // scheduler seed
	mode     string // survival or fix hardening
	clean    bool   // replay the clean full workload instead of forced-light
	out      string // Chrome trace_event JSON path
	jsonl    string // optional raw JSONL event path
	bufCap   int    // tracer ring capacity
	maxSteps int64
	quiet    bool
}

// runTrace replays one (bug, seed) pair with the trace sink attached,
// writes the Chrome trace (and optionally the raw JSONL events), and
// prints the reconstructed recovery-episode timeline. The replay is
// deterministic: the same bug, mode and seed always produce the same
// trace, byte for byte.
func runTrace(o traceOpts) error {
	b, err := lookupBug(o.bug)
	if err != nil {
		return err
	}

	bcfg := bugs.Config{Light: true, ForceBug: true}
	if o.clean {
		bcfg = bugs.Config{}
	}
	prog := b.Program(bcfg)

	opts := core.DefaultOptions()
	switch o.mode {
	case "survival":
	case "fix":
		pos, err := b.FixSite(prog)
		if err != nil {
			return err
		}
		opts = core.FixOptions(pos)
	default:
		return fmt.Errorf("unknown mode %q (want survival or fix)", o.mode)
	}
	h, err := core.Harden(prog, opts)
	if err != nil {
		return err
	}

	s, err := newSched(o.schedN, o.seed)
	if err != nil {
		return err
	}
	tr := obs.NewTracer(o.bufCap)
	r := runLive(h.Module, interp.Config{Sched: s, MaxSteps: o.maxSteps, Sink: tr}, b.Name+"-trace", o.seed)
	if err := writeEvents(tr.Events(), o.out, o.jsonl); err != nil {
		return err
	}

	if o.quiet {
		return nil
	}
	fmt.Printf("replayed %s (%s mode, seed %d): %d steps, completed=%v\n",
		b.Name, o.mode, o.seed, r.Stats.Steps, r.Completed)
	if r.Failure != nil {
		fmt.Printf("failure: %s at step %d\n", r.Failure, r.Failure.Step)
	}
	fmt.Printf("trace: %d events recorded, %d in ring, %d dropped -> %s\n",
		tr.Recorded(), len(tr.Events()), tr.Dropped(), o.out)
	fmt.Printf("stats: %d checkpoints, %d rollbacks, %d episodes\n",
		r.Stats.Checkpoints, r.Stats.Rollbacks, len(r.Stats.Episodes))
	fmt.Println()
	obs.Summarize(tr.Events()).WriteTimeline(os.Stdout)
	return nil
}

// lookupBug returns the named benchmark bug or corpus model.
func lookupBug(name string) (*bugs.Bug, error) {
	if b := bugs.ByName(name); b != nil {
		return b, nil
	}
	var names []string
	for _, b := range append(bugs.All(), bugs.Corpus()...) {
		names = append(names, b.Name)
	}
	return nil, fmt.Errorf("unknown bug %q (have: %s)", name, strings.Join(names, " "))
}

// writeEvents writes events as a Chrome trace_event JSON file to chrome
// and as JSON lines to jsonl, skipping an empty path.
func writeEvents(events []obs.Event, chrome, jsonl string) error {
	for _, out := range []struct {
		path  string
		write func(io.Writer, []obs.Event) error
	}{{chrome, obs.WriteChromeTrace}, {jsonl, obs.WriteJSONL}} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			return err
		}
		if err := out.write(f, events); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
