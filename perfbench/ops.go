package main

import (
	"fmt"
	"slices"
	"time"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/experiments"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/replay"
	"conair/internal/runner"
	"conair/internal/sanitizer"
	"conair/internal/sched"
)

// Step cutoffs: the repository's experiment cutoff for bug and corpus
// runs, its template cross-check cutoff for mirgen programs, which is
// also the short bound of the harden check run.
const (
	runMaxSteps   = 200_000_000
	checkMaxSteps = 20_000_000
	searchBudget  = 32
	// templateSearchSteps cuts the search runs of mirgen templates. Every
	// template's flagging schedule needs under a thousand steps; the cutoff
	// bounds the non-flagging order-template schedules that spin in
	// recovery for 3M to 20M steps depending on the draw, which would
	// otherwise set the verdict tail.
	templateSearchSteps = 20_000
	probeBudget         = 512
)

// count indexes one unit counter of a pass.
type count int

const (
	cHardenCalls count = iota
	cParsedInstrs
	cHardenedInstrs
	cSites
	cPrunedSites
	cInterprocSites
	cCheckpointsPlanted
	cRuns
	cSteps
	cCheckpoints
	cRollbacks
	cCompensations
	cEpisodes
	cRecoveredEpisodes
	cSearches
	cSeedsRun
	cTriages
	cEncodeBytes
	cProbes
	cPicks
	cSwitchesBefore
	cSwitchesAfter
	nCounts
)

// counts are one pass's unit counts. Each is a deterministic function of
// the workload's inputs, so the same seed gives the same counts at any
// worker count, and every pass over the same inputs gives the same counts.
type counts [nCounts]int64

func (c *counts) add(o *counts) {
	for i := range c {
		c[i] += o[i]
	}
}

func (c *counts) addRun(r *interp.Result) {
	c[cRuns]++
	c[cSteps] += r.Stats.Steps
	c[cCheckpoints] += r.Stats.Checkpoints
	c[cRollbacks] += r.Stats.Rollbacks
	c[cCompensations] += r.Stats.CompFrees + r.Stats.CompUnlocks
	c[cEpisodes] += int64(len(r.Stats.Episodes))
	c[cRecoveredEpisodes] += int64(len(r.RecoveredEpisodes()))
}

// pass is the outcome of one pass over a phase's inputs.
type pass struct {
	c         counts
	retries   []int64 // rollbacks per recovery episode
	attempted int
	failures  []string
	// untimed is time spent inside the pass on the benchmark's own
	// housekeeping, which does not count toward throughput.
	untimed time.Duration
}

func (p *pass) op(err error) {
	p.attempted++
	if err != nil {
		p.failures = append(p.failures, err.Error())
	}
}

func (p *pass) addRun(r *interp.Result) {
	p.c.addRun(r)
	for _, e := range r.Stats.Episodes {
		p.retries = append(p.retries, e.Retries)
	}
}

func numInstrs(m *mir.Module) int64 {
	var n int64
	for _, f := range m.Functions {
		n += int64(f.NumInstrs())
	}
	return n
}

// reference is what an unhardened failure-free program printed; its
// hardened build must print exactly the same.
type reference struct {
	exit mir.Word
	out  []interp.OutputEvent
}

func referenceOf(r *interp.Result) *reference {
	return &reference{exit: r.ExitCode, out: r.Output}
}

func (ref *reference) check(r *interp.Result) error {
	if r.ExitCode != ref.exit || len(r.Output) != len(ref.out) {
		return fmt.Errorf("exit %d with %d outputs, want exit %d with %d outputs",
			r.ExitCode, len(r.Output), ref.exit, len(ref.out))
	}
	for i, o := range ref.out {
		if r.Output[i].Text != o.Text || r.Output[i].Value != o.Value {
			return fmt.Errorf("output %d is %s=%d, want %s=%d", i, r.Output[i].Text, r.Output[i].Value, o.Text, o.Value)
		}
	}
	return nil
}

// hardenJob is one operation of the harden pipeline: a program as MIR
// text, hardened in survival mode or, for a bug, in fix mode at its
// documented failure site.
type hardenJob struct {
	key  string
	text string
	bug  *bugs.Bug // fix mode when set
	seed int64     // scheduler seed of the check run
	// ref is the unhardened program's output for failure-free programs;
	// nil for programs whose unhardened build fails.
	ref *reference
}

// harden runs one pipeline operation — mir.Parse, core.Harden, a cold
// interp.Compile, mir.Print and one short bounded check run — records its
// latency in s, and returns the hardened module.
func (b *bench) harden(j *hardenJob, parent int, s *series, p *pass) *core.Hardened {
	op := b.tr.begin("bench.harden", parent)
	defer b.tr.end(op, 0)
	start := time.Now()

	sp := b.tr.begin("mir.Parse", op)
	m, err := mir.Parse(j.text)
	if err != nil {
		b.tr.end(sp, 0)
		p.op(fmt.Errorf("%s: parse: %w", j.key, err))
		return nil
	}
	instrs := numInstrs(m)
	b.tr.end(sp, instrs)

	opts := core.DefaultOptions()
	if j.bug != nil {
		pos, err := j.bug.FixSite(m)
		if err != nil {
			p.op(fmt.Errorf("%s: fix site: %w", j.key, err))
			return nil
		}
		opts = core.FixOptions(pos)
	}
	sp = b.tr.begin("core.Harden", op)
	h, err := core.Harden(m, opts)
	b.tr.end(sp, 0)
	if err != nil {
		p.op(fmt.Errorf("%s: harden: %w", j.key, err))
		return nil
	}
	b.tr.inner("analysis.Analyze", sp, 0, h.Report.AnalysisTime)
	b.tr.inner("transform.Apply", sp, h.Report.AnalysisTime, h.Report.TransformTime)

	hardened := numInstrs(h.Module)
	sp = b.tr.begin("interp.Compile", op)
	interp.Compile(h.Module) // a fresh module, so always a cold compile
	b.tr.end(sp, hardened)

	sp = b.tr.begin("mir.Print", op)
	text := mir.Print(h.Module)
	b.tr.end(sp, int64(len(text)))

	sp = b.tr.begin("interp.RunModule", op)
	r := interp.RunModule(h.Module, interp.Config{
		Sched:         sched.NewRandom(j.seed),
		MaxSteps:      checkMaxSteps,
		CollectOutput: j.ref != nil,
	})
	b.tr.end(sp, r.Stats.Steps)
	s.add(j.key, time.Since(start))

	p.c[cHardenCalls]++
	p.c[cParsedInstrs] += instrs
	p.c[cHardenedInstrs] += hardened
	p.c[cSites] += int64(len(h.Report.Analysis.Sites))
	p.c[cPrunedSites] += int64(h.Report.PrunedSites)
	p.c[cInterprocSites] += int64(h.Report.InterprocSites)
	p.c[cCheckpointsPlanted] += int64(h.Report.StaticReexecPoints)
	p.addRun(r)

	switch {
	case !r.Completed:
		p.op(fmt.Errorf("%s: hardened check run (seed %d) failed: %v", j.key, j.seed, r.Failure))
	case j.ref != nil:
		if err := j.ref.check(r); err != nil {
			p.op(fmt.Errorf("%s: hardened output differs from unhardened: %v", j.key, err))
		} else {
			p.op(nil)
		}
	default:
		p.op(nil)
	}
	return h
}

// runJob is one seeded interpreter run of a prepared module.
type runJob struct {
	key  string
	mod  *mir.Module
	seed int64
	// checkpoints, when non-negative, is the dynamic checkpoint count the
	// run must report (the Table 5 oracle).
	checkpoints int64
	// input keys the run's latency samples: the program with its seed.
	input string
}

func newRunJob(key string, mod *mir.Module, seed, checkpoints int64) runJob {
	return runJob{key: key, mod: mod, seed: seed, checkpoints: checkpoints, input: fmt.Sprintf("%s@%d", key, seed)}
}

// runBatch executes jobs through eng.RunJob on eng's worker pool — one
// closed loop per worker — and checks that every run completed.
func (b *bench) runBatch(eng runner.Engine, jobs []runJob, parent int, s *series) *pass {
	batch := b.tr.begin("runner.Map", parent)
	res := runner.Map(eng, len(jobs), func(i int) *interp.Result {
		j := &jobs[i]
		sp := b.tr.begin("interp.RunJob", batch)
		start := time.Now()
		r := eng.RunJob(j.mod, runner.SeedConfig(j.seed, runMaxSteps), replay.Meta{Seed: j.seed, Label: j.key})
		s.add(j.input, time.Since(start))
		b.tr.end(sp, r.Stats.Steps)
		return r
	})
	b.tr.end(batch, 0)
	p := &pass{}
	for i, r := range res {
		j := &jobs[i]
		p.addRun(r)
		switch {
		case !r.Completed:
			p.op(fmt.Errorf("%s seed %d: run failed: %v", j.key, j.seed, r.Failure))
		case j.checkpoints >= 0 && r.Stats.Checkpoints != j.checkpoints:
			p.op(fmt.Errorf("%s seed %d: %d dynamic checkpoints, want %d", j.key, j.seed, r.Stats.Checkpoints, j.checkpoints))
		default:
			p.op(nil)
		}
	}
	return p
}

// schedSpec names a schedule: a PCT or a random-scheduler seed, with
// the run's step cutoff.
type schedSpec struct {
	pct      bool
	seed     int64
	maxSteps int64
}

func (s schedSpec) config() interp.Config {
	if s.pct {
		return pctConfig(s.seed, s.maxSteps)
	}
	return interp.Config{Sched: sched.NewRandom(s.seed), MaxSteps: s.maxSteps}
}

// pctConfig is the schedule experiments.SanitizeSearch explores per seed.
func pctConfig(seed, maxSteps int64) interp.Config {
	return interp.Config{Sched: sched.NewPCT(seed, 3, 64), MaxSteps: maxSteps, CollectOutput: true}
}

// target is one labelled detect target.
type target struct {
	key   string
	truth truth
	// search is the build the PCT search runs on; fail is the unhardened
	// forced build and failSched a schedule on which it fails, found at
	// set-up, whose run triage captures.
	search    *mir.Module
	fail      *mir.Module
	failSched schedSpec
	// maxSteps is the step cutoff of the search's runs: the repository's
	// experiment cutoff for the bugs and corpus models,
	// templateSearchSteps for mirgen templates.
	maxSteps int64
}

// winner is a search verdict kept for the traced sanitizer profile.
type winner struct {
	t    *target
	seed int64
}

// flightEngine captures a run the way a served sweep does: the engine's
// always-on flight ring armed, the recording handed to the run hook.
func flightEngine(rec **replay.Recording) runner.Engine {
	return runner.Engine{
		Workers:     1,
		FlightLimit: runner.DefaultFlightLimit,
		RunHook:     func(ri runner.RunInfo) { *rec = ri.Recording },
	}
}

// Schedules findFailure tries, random before PCT.
const (
	failRandomSeeds = 64
	failPCTSeeds    = 128
)

// findFailure returns the first schedule on which mod fails with a
// complete flight recording. It also fills the compiled-program and
// artifact caches for mod.
func findFailure(mod *mir.Module, maxSteps int64) (schedSpec, error) {
	try := func(s schedSpec) bool {
		var rec *replay.Recording
		eng := flightEngine(&rec)
		r := eng.RunJob(mod, s.config(), replay.Meta{Seed: s.seed, Label: mod.Name})
		return !r.Completed && rec != nil
	}
	for seed := range int64(failRandomSeeds) {
		if s := (schedSpec{seed: seed, maxSteps: maxSteps}); try(s) {
			return s, nil
		}
	}
	for seed := range int64(failPCTSeeds) {
		if s := (schedSpec{pct: true, seed: seed, maxSteps: maxSteps}); try(s) {
			return s, nil
		}
	}
	return schedSpec{}, fmt.Errorf("%s: no failing schedule with a complete flight recording in %d random and %d PCT seeds",
		mod.Name, failRandomSeeds, failPCTSeeds)
}

// detect runs one target's two steps: a PCT sanitizer search to a verdict
// (recorded in verdicts) and triage of the failing run (recorded in
// triages): flight capture, replay.Encode, Decode, Verify and Minimize,
// then Verify of the minimized artifact.
func (b *bench) detect(t *target, parent int, verdicts, triages *series, p *pass) (winner, bool) {
	op := b.tr.begin("bench.detect", parent)
	defer b.tr.end(op, 0)

	start := time.Now()
	sp := b.tr.begin("sanitizer.SanitizeSearch", op)
	seed, reports := experiments.SanitizeSearch(t.search, searchBudget, t.maxSteps)
	b.tr.end(sp, 0)
	verdicts.add(t.key, time.Since(start))
	p.c[cSearches]++
	p.c[cSeedsRun] += seed + 1
	err := t.truth.check(reports)
	if seed < 0 {
		err = fmt.Errorf("no PCT schedule in %d flagged the bug", searchBudget)
	}
	if err != nil {
		err = fmt.Errorf("%s: verdict: %w", t.key, err)
	}
	p.op(err)

	start = time.Now()
	p.op(b.triage(t, op, p))
	triages.add(t.key, time.Since(start))
	return winner{t: t, seed: seed}, seed >= 0
}

func (b *bench) triage(t *target, op int, p *pass) error {
	var rec *replay.Recording
	eng := flightEngine(&rec)
	sp := b.tr.begin("obs.FlightRun", op)
	r := eng.RunJob(t.fail, t.failSched.config(), replay.Meta{Seed: t.failSched.seed, Label: t.key})
	b.tr.end(sp, r.Stats.Steps)
	p.addRun(r)
	if r.Completed || rec == nil {
		return fmt.Errorf("%s: triage: schedule %+v no longer fails with a complete recording", t.key, t.failSched)
	}

	sp = b.tr.begin("replay.Encode", op)
	data := replay.Encode(rec)
	b.tr.end(sp, int64(len(data)))

	sp = b.tr.begin("replay.Decode", op)
	dec, err := replay.Decode(data)
	b.tr.end(sp, 0)
	if err != nil {
		return fmt.Errorf("%s: triage: decode: %w", t.key, err)
	}

	sp = b.tr.begin("replay.Verify", op)
	err = replay.Verify(t.fail, dec)
	b.tr.end(sp, 0)
	if err != nil {
		return fmt.Errorf("%s: triage: verify: %w", t.key, err)
	}

	sp = b.tr.begin("replay.Minimize", op)
	shrunk, err := replay.Minimize(t.fail, dec, replay.MinimizeOptions{ProbeBudget: probeBudget})
	if err != nil {
		b.tr.end(sp, 0)
		return fmt.Errorf("%s: triage: minimize: %w", t.key, err)
	}
	b.tr.end(sp, int64(shrunk.Probes))

	sp = b.tr.begin("replay.Verify", op)
	err = replay.Verify(t.fail, shrunk.Rec)
	b.tr.end(sp, 0)

	p.c[cTriages]++
	p.c[cEncodeBytes] += int64(len(data))
	p.c[cProbes] += int64(shrunk.Probes)
	p.c[cPicks] += rec.Picks()
	p.c[cSwitchesBefore] += int64(shrunk.SwitchesBefore)
	p.c[cSwitchesAfter] += int64(shrunk.SwitchesAfter)
	switch {
	case err != nil:
		return fmt.Errorf("%s: triage: minimized artifact: %w", t.key, err)
	case !shrunk.Rec.Fingerprint.SameFailure(dec.Fingerprint):
		return fmt.Errorf("%s: triage: minimized schedule fails as %s, want %s",
			t.key, shrunk.Rec.Fingerprint.FailureKey(), dec.Fingerprint.FailureKey())
	}
	return nil
}

// truth is a detect target's label from oracle.json.
type truth struct {
	Race          string   `json:"race"`
	Locks         []string `json:"locks"`
	Search        string   `json:"search"`
	HeapCompanion bool     `json:"heap_companion"`
}

// check matches a search's reports against the label: a race bug must be
// reported only as races on its global (plus, for pointer publication,
// the heap block the pointer publishes), a deadlock bug only as the
// inverted lock pair.
func (tr truth) check(rs []sanitizer.Report) error {
	seen := false
	for _, r := range rs {
		if tr.Locks != nil {
			if r.Kind != sanitizer.KindDeadlock {
				return fmt.Errorf("%v report, want deadlock on (%s,%s)", r.Kind, tr.Locks[0], tr.Locks[1])
			}
			got := []string{r.LockA, r.LockB}
			if !slices.Contains(got, tr.Locks[0]) || !slices.Contains(got, tr.Locks[1]) {
				return fmt.Errorf("deadlock on (%s,%s), want (%s,%s)", r.LockA, r.LockB, tr.Locks[0], tr.Locks[1])
			}
			seen = true
			continue
		}
		switch {
		case r.Kind == sanitizer.KindDeadlock:
			return fmt.Errorf("deadlock report (%s,%s), want race on %s", r.LockA, r.LockB, tr.Race)
		case r.Global == tr.Race:
			seen = true
		case r.Global == "" && tr.HeapCompanion:
		default:
			return fmt.Errorf("race on %q, want %q", r.Location(), tr.Race)
		}
	}
	if !seen {
		return fmt.Errorf("no report names the labelled bug")
	}
	return nil
}
