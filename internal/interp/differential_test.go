package interp_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/mirgen"
	"conair/internal/obs"
	"conair/internal/sanitizer"
	"conair/internal/sched"
)

// The differential tests pin the ahead-of-time compiled execution path
// (interp.Run) against the reference interpreter (interp.RunReference),
// which still walks the original mir.Instr stream through eval() and
// scans every thread and calls Pick once per step. Any divergence in
// Results — completion, failure kind/position/message, exit code,
// outputs, step counts, checkpoint/rollback stats, recovery episodes — is
// a compiler bug; any divergence in the schedule a scheduler made, or in
// the state it was left in, is a bug in the runnable-set cache or the
// stay budget.

const diffMaxSteps = 2_000_000

func diffCompare(t *testing.T, name string, m *mir.Module, seeds []int64) {
	t.Helper()
	for _, seed := range seeds {
		cfgA := interp.Config{
			Sched: sched.NewRandom(seed), MaxSteps: diffMaxSteps, CollectOutput: true,
		}
		cfgB := interp.Config{
			Sched: sched.NewRandom(seed), MaxSteps: diffMaxSteps, CollectOutput: true,
		}
		got := interp.RunCounted(m, cfgA)
		want := interp.RunReference(m, cfgB)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s seed %d: compiled and reference results differ\ncompiled:  %+v\nreference: %+v",
				name, seed, got, want)
			if got.Failure != nil || want.Failure != nil {
				t.Errorf("failures: compiled=%+v reference=%+v", got.Failure, want.Failure)
			}
			return
		}
	}
}

// testdataPrograms globs every checked-in .mir program: the top-level
// exemplars and the real-bug corpus models (which exercise the condvar,
// channel and cas instructions on realistic programs).
func testdataPrograms(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, pattern := range []string{"../../testdata/*.mir", "../bugs/testdata/*.mir"} {
		fs, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, fs...)
	}
	if len(files) == 0 {
		t.Fatal("no testdata programs found")
	}
	return files
}

// TestDifferentialTestdata runs every checked-in .mir program — raw and
// hardened — under both interpreters across several seeds.
func TestDifferentialTestdata(t *testing.T) {
	files := testdataPrograms(t)
	seeds := []int64{0, 1, 7, 42, 12345}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := mir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		name := filepath.Base(path)
		diffCompare(t, name, m, seeds)

		h, err := core.Harden(m, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: harden: %v", path, err)
		}
		diffCompare(t, name+"+hardened", h.Module, seeds)
	}
}

// TestDifferentialMirgen sweeps 50 generated programs — cycling thread
// counts and all bug templates, raw and hardened — under both
// interpreters. This is the broad-coverage leg: generated programs hit
// operand shapes, checkpoint/rollback, lock and thread
// interleavings that the handwritten programs do not.
func TestDifferentialMirgen(t *testing.T) {
	bugs := []mirgen.BugKind{
		mirgen.BugNone, mirgen.BugOrder, mirgen.BugAtomicity, mirgen.BugLockInversion,
		mirgen.BugLostSignal, mirgen.BugMissedBroadcast, mirgen.BugChannelDeadlock,
		mirgen.BugCASABA,
	}
	seeds := []int64{0, 3}
	for i := 0; i < 50; i++ {
		cfg := mirgen.Config{
			Seed:    int64(i),
			Threads: i % 4,
			Bug:     bugs[i%len(bugs)],
		}
		m := mirgen.Gen(cfg)
		name := cfg.Bug.String()
		diffCompare(t, name, m, seeds)

		if i%5 == 0 { // hardened leg on a subset: Harden dominates runtime
			h, err := core.Harden(m, core.DefaultOptions())
			if err != nil {
				t.Fatalf("seed %d: harden: %v", i, err)
			}
			diffCompare(t, name+"+hardened", h.Module, seeds)
		}
	}
}

// The scheduler sweep runs each module under the schedulers the compiled
// path takes stays from, compiled against reference: PCT (the sanitizer
// search's NewPCT(seed, 3, 64)) with and without a race detector, a
// flight recorder around PCT, and segment replay over recorded and edited
// streams. It compares the Result, the sink's pick stream, the
// scheduler's own observables and next draw, and the detector's reports.

const (
	// schedDiffMaxSteps cuts livelocked runs (LGFrontier's survival build
	// under PCT seed 0 spins for millions of steps) well inside a stay.
	schedDiffMaxSteps = 20_000
	// schedDiffTracerCap holds every event of a run of schedDiffMaxSteps:
	// one KindSchedPick per step plus lifecycle, lock and output events.
	schedDiffTracerCap = 1 << 16
)

// schedDiffTracer is the sweep's sink, reset for every run.
var schedDiffTracer = obs.NewTracer(schedDiffTracerCap)

// schedRun is the observable outcome of one run under a scheduler.
type schedRun struct {
	sched   sched.Scheduler
	res     interp.Counted
	picks   []schedPick
	state   any // the scheduler's observables; see schedState
	next    int // the scheduler's next Intn after the run
	reports []sanitizer.Report
}

// schedState returns what a scheduler exposes about the run it made.
func schedState(s sched.Scheduler) any {
	switch s := s.(type) {
	case *sched.SegmentReplay:
		return fmt.Sprintf("diverged=%d tail=%d exhausted=%v", s.Diverged(), s.TailPicks(), s.Exhausted())
	case *sched.FlightRecorder:
		return []any{s.Segments(), s.Intns(), s.Picks(), s.Truncated()}
	}
	return nil
}

// runSched runs m under a fresh scheduler from mk, compiled or reference,
// with a sink and optionally a race detector.
func runSched(t *testing.T, m *mir.Module, mk func() sched.Scheduler, san, ref bool) schedRun {
	t.Helper()
	s := mk()
	tr := schedDiffTracer
	tr.Reset()
	cfg := interp.Config{Sched: s, MaxSteps: schedDiffMaxSteps, CollectOutput: true, Sink: tr}
	var det *sanitizer.Sanitizer
	if san {
		det = sanitizer.New(m)
		cfg.Sanitizer = det
	}
	r := schedRun{sched: s}
	if ref {
		r.res = interp.RunReference(m, cfg)
	} else {
		r.res = interp.RunCounted(m, cfg)
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("tracer dropped %d events; raise schedDiffTracerCap", d)
	}
	for _, e := range tr.Events() {
		if e.Kind == obs.KindSchedPick {
			r.picks = append(r.picks, schedPick{e.Step, e.TID})
		}
	}
	r.state = schedState(s)
	r.next = s.Intn(1 << 20)
	if det != nil {
		r.reports = det.Reports()
	}
	return r
}

// schedCompare runs m compiled and reference under mk, fails on the first
// difference and returns the compiled run.
func schedCompare(t *testing.T, where string, m *mir.Module, mk func() sched.Scheduler, san bool) schedRun {
	t.Helper()
	got, want := runSched(t, m, mk, san, false), runSched(t, m, mk, san, true)
	switch {
	case !reflect.DeepEqual(got.res, want.res):
		t.Fatalf("%s: results differ\ncompiled:  %+v\nreference: %+v", where, got.res, want.res)
	case len(got.picks) != len(want.picks):
		t.Fatalf("%s: %d picks compiled, %d reference", where, len(got.picks), len(want.picks))
	case !reflect.DeepEqual(got.state, want.state):
		t.Fatalf("%s: scheduler state differs\ncompiled:  %v\nreference: %v", where, got.state, want.state)
	case got.next != want.next:
		t.Fatalf("%s: next draw %d compiled, %d reference", where, got.next, want.next)
	case !reflect.DeepEqual(got.reports, want.reports):
		t.Fatalf("%s: sanitizer reports differ\ncompiled:  %v\nreference: %v", where, got.reports, want.reports)
	}
	for i := range got.picks {
		if got.picks[i] != want.picks[i] {
			t.Fatalf("%s: pick streams diverge at decision %d: compiled %+v, reference %+v",
				where, i, got.picks[i], want.picks[i])
		}
	}
	return got
}

// replayTally counts what the segment-replay leg exercised.
type replayTally struct{ diverged, tail int64 }

// editStreams returns ddmin-style edits of a recorded pick stream:
// segments dropped, threads swapped (divergence), the stream cut in half
// or inside another thread's first segment (tail picks), and segments
// split around empty ones.
func editStreams(segs []sched.Segment) map[string][]sched.Segment {
	var drop, swap, split []sched.Segment
	for i, s := range segs {
		if i%3 != 1 {
			drop = append(drop, s)
		}
		if i%4 == 2 {
			s.TID ^= 1
		}
		swap = append(swap, s)
		if s.N > 1 {
			split = append(split, sched.Segment{TID: s.TID, N: s.N / 2}, sched.Segment{TID: s.TID},
				sched.Segment{TID: s.TID, N: s.N - s.N/2})
		} else {
			split = append(split, s)
		}
	}
	// cut ends the stream inside the first segment of a thread other than
	// 0, so the tail's lowest-id fallback has to switch away from it.
	var cut []sched.Segment
	for i, s := range segs {
		if s.TID != 0 {
			cut = append(cut[:0:0], segs[:i]...)
			cut = append(cut, sched.Segment{TID: s.TID, N: max(1, s.N/2)})
			break
		}
	}
	return map[string][]sched.Segment{
		"recorded": segs, "dropped": drop, "swapped": swap, "split": split,
		"halved": segs[:len(segs)/2], "cut": cut,
	}
}

// diffSchedulers sweeps m under every stayed scheduler: PCT seeds with
// and without a race detector, flight(PCT) on a small ring for the first
// flightSeeds seeds, and segment replay of the flight(PCT) recording of
// seed 0 and of its edits.
func diffSchedulers(t *testing.T, name string, m *mir.Module, pctSeeds []int64, flightSeeds int, tally *replayTally) {
	t.Helper()
	for i, seed := range pctSeeds {
		pct := func() sched.Scheduler { return sched.NewPCT(seed, 3, 64) }
		schedCompare(t, fmt.Sprintf("%s pct(%d)", name, seed), m, pct, false)
		schedCompare(t, fmt.Sprintf("%s pct(%d)+sanitizer", name, seed), m, pct, true)
		if i < flightSeeds {
			fl := func() sched.Scheduler { return sched.NewFlightRecorder(sched.NewPCT(seed, 3, 64), 64) }
			schedCompare(t, fmt.Sprintf("%s flight(pct(%d))", name, seed), m, fl, false)
		}
	}
	rec := sched.NewFlightRecorder(sched.NewPCT(pctSeeds[0], 3, 64), math.MaxInt)
	interp.RunModule(m, interp.Config{Sched: rec, MaxSteps: schedDiffMaxSteps, CollectOutput: true})
	for edit, segs := range editStreams(rec.Segments()) {
		rp := func() sched.Scheduler { return sched.NewSegmentReplay(segs, rec.Intns()) }
		r := schedCompare(t, fmt.Sprintf("%s replay(%s)", name, edit), m, rp, false).sched.(*sched.SegmentReplay)
		tally.diverged += r.Diverged()
		tally.tail += r.TailPicks()
	}
}

// pctSeeds are the PCT seeds of the scheduler sweep.
func pctSeeds(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// TestDifferentialSchedTestdata runs the scheduler sweep over every
// checked-in program, raw and hardened, with PCT seeds 0-31.
func TestDifferentialSchedTestdata(t *testing.T) {
	var tally replayTally
	for _, path := range testdataPrograms(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := mir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		h, err := core.Harden(m, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: harden: %v", path, err)
		}
		name := filepath.Base(path)
		diffSchedulers(t, name, m, pctSeeds(32), 8, &tally)
		diffSchedulers(t, name+"+hardened", h.Module, pctSeeds(32), 8, &tally)
	}
	if tally.diverged == 0 || tally.tail == 0 {
		t.Fatalf("edited replays made %d divergences and %d tail picks; want both", tally.diverged, tally.tail)
	}
}

// TestDifferentialSchedMirgen runs the scheduler sweep over a generated
// program of every bug template, raw and hardened.
func TestDifferentialSchedMirgen(t *testing.T) {
	kinds := []mirgen.BugKind{
		mirgen.BugNone, mirgen.BugOrder, mirgen.BugAtomicity, mirgen.BugLockInversion,
		mirgen.BugLostSignal, mirgen.BugMissedBroadcast, mirgen.BugChannelDeadlock,
		mirgen.BugCASABA,
	}
	var tally replayTally
	for i := 0; i < 8; i++ {
		cfg := mirgen.Config{Seed: int64(i), Threads: 1 + i%3, Bug: kinds[i]}
		m := mirgen.Gen(cfg)
		h, err := core.Harden(m, core.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: harden: %v", i, err)
		}
		name := fmt.Sprintf("%v/%d", cfg.Bug, i)
		diffSchedulers(t, name, m, pctSeeds(32), 4, &tally)
		diffSchedulers(t, name+"+hardened", h.Module, pctSeeds(32), 4, &tally)
	}
	if tally.diverged == 0 || tally.tail == 0 {
		t.Fatalf("edited replays made %d divergences and %d tail picks; want both", tally.diverged, tally.tail)
	}
}

// TestDifferentialSchedBugs runs the scheduler sweep over the 13
// programs' light forced builds, raw and survival-hardened: the detect
// phase's search targets, the livelocked LGFrontier and LGCompletion
// survival builds among them.
func TestDifferentialSchedBugs(t *testing.T) {
	var tally replayTally
	for _, b := range append(bugs.All(), bugs.Corpus()...) {
		m := b.Program(bugs.Config{Light: true, ForceBug: true})
		h, err := core.Harden(m, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: harden: %v", b.Name, err)
		}
		diffSchedulers(t, b.Name, m, pctSeeds(32), 4, &tally)
		diffSchedulers(t, b.Name+"+hardened", h.Module, pctSeeds(32), 4, &tally)
	}
	if tally.diverged == 0 || tally.tail == 0 {
		t.Fatalf("edited replays made %d divergences and %d tail picks; want both", tally.diverged, tally.tail)
	}
}
