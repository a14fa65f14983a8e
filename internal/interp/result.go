package interp

import (
	"fmt"

	"conair/internal/mir"
)

// Failure describes why a run failed.
type Failure struct {
	Kind   mir.FailKind
	Pos    mir.Pos
	Site   int // transformed failure-site id, 0 if none
	Thread int
	Step   int64
	Msg    string
}

// Error renders the failure for logs.
func (f *Failure) Error() string {
	return fmt.Sprintf("%s failure at %s (thread %d, step %d): %s",
		f.Kind, f.Pos, f.Thread, f.Step, f.Msg)
}

// OutputEvent is one output instruction execution.
type OutputEvent struct {
	Text   string
	Value  mir.Word
	Thread int
	Step   int64
}

// Episode records one recovery episode at a failure site: the span from
// the first rollback to the step at which the site was finally passed (or
// the run ended). Table 7's recovery time and retry count come from here.
type Episode struct {
	Site      int
	Thread    int
	Start     int64 // step of the first rollback
	End       int64 // step when the site passed; -1 if never
	Retries   int64 // rollbacks performed in this episode
	Recovered bool
}

// Duration returns the episode length in interpreter steps, or -1 when
// the episode never completed — distinguishing "never recovered" from a
// genuine zero-length episode (a site that passed at the very step of its
// first rollback).
func (e *Episode) Duration() int64 {
	if !e.Recovered {
		return -1
	}
	return e.End - e.Start
}

// Stats aggregates run counters.
type Stats struct {
	// Steps is the run's virtual time: one step per executed instruction,
	// plus the steps skipped when no thread can run and the scheduler
	// fast-forwards to the next sleeper's or timed wait's wake-up, plus
	// whatever VM.AdvanceSteps charges. It is not a count of retired
	// instructions.
	Steps int64
	// Checkpoints counts dynamic reexecution-point executions (Table 5's
	// "Dynamic" column).
	Checkpoints int64
	// Rollbacks counts executed rollback longjmps.
	Rollbacks int64
	// CompFrees and CompUnlocks count compensation actions at rollbacks.
	CompFrees, CompUnlocks int64
	// Episodes lists completed and pending recovery episodes.
	Episodes []Episode
	// ThreadsSpawned counts threads ever created (including main).
	ThreadsSpawned int
}

// Result is the outcome of one interpreter run.
type Result struct {
	// Completed reports that main returned without failure.
	Completed bool
	// Failure is non-nil when the run ended in a detected failure.
	Failure *Failure
	// ExitCode is main's return value when Completed.
	ExitCode mir.Word
	// Output holds output events when Config.CollectOutput is set.
	Output []OutputEvent
	Stats  Stats
}

// Interrupted reports whether the run was stopped by Config.Interrupt
// rather than ending on its own. Where it stopped depends on when the flag
// was set, so such a run cannot be reproduced from its schedule.
func (r *Result) Interrupted() bool {
	return r.Failure != nil && r.Failure.Kind == mir.FailHang && r.Failure.Msg == hangWatchdog
}

// RecoveredEpisodes returns only the episodes that completed successfully.
func (r *Result) RecoveredEpisodes() []Episode {
	var out []Episode
	for _, e := range r.Stats.Episodes {
		if e.Recovered {
			out = append(out, e)
		}
	}
	return out
}

// MaxEpisode returns the longest recovered episode, or nil.
func (r *Result) MaxEpisode() *Episode {
	var best *Episode
	for i := range r.Stats.Episodes {
		e := &r.Stats.Episodes[i]
		if !e.Recovered {
			continue
		}
		if best == nil || e.Duration() > best.Duration() {
			best = e
		}
	}
	return best
}
