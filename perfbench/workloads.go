package main

import (
	"fmt"
	"math/rand"
	"time"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/mirgen"
	"conair/internal/sched"
)

// sizes scale a workload's inputs.
type sizes struct {
	rounds        int // set-ups per measurement, each followed by every phase
	forcedSeeds   int // recovery: scheduler seeds per hardened forced program
	cleanSeeds    int // recovery: scheduler seeds per full program besides seed 1
	streamSeeds   int // harden: programs per (template, size class, thread count)
	templateSeeds int // detect: targets per mirgen bug kind
}

var (
	fullSizes = sizes{rounds: 3, forcedSeeds: 8, cleanSeeds: 3, streamSeeds: 2, templateSeeds: 8}
	tinySizes = sizes{rounds: 2, forcedSeeds: 1, cleanSeeds: 0, streamSeeds: 1, templateSeeds: 1}
)

// sliceSeeds are the scheduler seeds of the run slices. The slices, the
// bug programs' check runs and the detect slice use fixed inputs, so the
// metrics a workload does not focus on move only when the code does.
var sliceSeeds = []int64{1, 2, 3}

// bugCheckSeed is the scheduler seed of a bug program's harden check run.
const bugCheckSeed = 1

// phase is one timed part of a workload. In every round a phase repeats
// whole passes over its inputs until its share of the round has passed;
// it always makes at least one.
type phase struct {
	name  string
	share float64
	// tp selects the series whose throughput the phase's wall time counts
	// toward.
	tp func(m *measurement) *series
	// warm re-fills the compiled-program cache for the phase's modules
	// before the phase runs; another phase may have evicted them.
	warm func()
	// run makes one pass; first marks the round's first pass.
	run func(m *measurement, parent int, first bool) *pass
}

// plan is a workload's set-up output: its timed phases, plus the forced
// runs the traced flight-ring profile replays.
type plan struct {
	phases []phase
	forced []runJob
	// headline is the end-to-end metric the tracing overhead is given on.
	headline string
}

// programs are the ten paper bugs and the three corpus models.
func programs() []*bugs.Bug { return append(bugs.All(), bugs.Corpus()...) }

func (b *bench) printText(m *mir.Module, parent int) string {
	sp := b.tr.begin("mir.Print", parent)
	text := mir.Print(m)
	b.tr.end(sp, int64(len(text)))
	return text
}

func (b *bench) program(bug *bugs.Bug, cfg bugs.Config, parent int) *mir.Module {
	sp := b.tr.begin("bugs.Program", parent)
	m := bug.Program(cfg)
	b.tr.end(sp, 0)
	return m
}

func (b *bench) hardenDirect(m *mir.Module, opts core.Options, parent int, p *pass) *core.Hardened {
	sp := b.tr.begin("core.Harden", parent)
	h, err := core.Harden(m, opts)
	b.tr.end(sp, 0)
	if err != nil {
		p.op(fmt.Errorf("%s: harden: %w", m.Name, err))
		return nil
	}
	b.tr.inner("analysis.Analyze", sp, 0, h.Report.AnalysisTime)
	b.tr.inner("transform.Apply", sp, h.Report.AnalysisTime, h.Report.TransformTime)
	return h
}

func (b *bench) compile(parent int, mods ...*mir.Module) {
	for _, m := range mods {
		sp := b.tr.begin("interp.Compile", parent)
		interp.Compile(m)
		b.tr.end(sp, numInstrs(m))
	}
}

// newTarget labels a detect target from the oracle.
func (b *bench) newTarget(key, label string, forced, survival *mir.Module, fail schedSpec, searchSteps int64, p *pass) *target {
	tr, ok := b.oracle.Targets[label]
	if !ok {
		p.op(fmt.Errorf("%s: no oracle label %q", key, label))
		return nil
	}
	t := &target{key: key, truth: tr, search: forced, fail: forced, failSched: fail, maxSteps: searchSteps}
	if tr.Search == "survival" {
		t.search = survival
	}
	return t
}

// checkLabel cross-checks a generated template's ground-truth label
// against the hand-written oracle.
func (b *bench) checkLabel(info *mirgen.BugInfo, p *pass) {
	tr := b.oracle.Targets[info.Kind.String()]
	var err error
	switch {
	case tr.Locks != nil && (info.LockA != tr.Locks[0] || info.LockB != tr.Locks[1]):
		err = fmt.Errorf("%v template locks (%s,%s), oracle says (%s,%s)", info.Kind, info.LockA, info.LockB, tr.Locks[0], tr.Locks[1])
	case tr.Locks == nil && info.Global != tr.Race:
		err = fmt.Errorf("%v template global %q, oracle says %q", info.Kind, info.Global, tr.Race)
	}
	p.op(err)
}

// findFailure is the package-level findFailure under a set-up span.
func (b *bench) findFailure(m *mir.Module, maxSteps int64, parent int) (schedSpec, error) {
	sp := b.tr.begin("bench.findFailure", parent)
	defer b.tr.end(sp, 0)
	return findFailure(m, maxSteps)
}

// bugSet is the 13 programs prepared for the fixed slices: forced runs
// of their fix and survival builds, failure-free runs of their light
// survival builds, and one detect target each.
type bugSet struct {
	forced, clean []runJob
	targets       []*target
}

// prepareBugs builds the bug set. With hs set, the fix and survival
// builds come from harden operations on the programs' MIR text, sampled
// in hs; otherwise core.Harden hardens the built modules directly.
func (b *bench) prepareBugs(parent int, p *pass, hs *series) *bugSet {
	bs := &bugSet{}
	progs := programs()
	lights := make([]*mir.Module, len(progs))
	fixes := make([]*core.Hardened, len(progs))
	survs := make([]*core.Hardened, len(progs))
	for i, bug := range progs {
		lights[i] = b.program(bug, bugs.Config{Light: true, ForceBug: true}, parent)
		if hs != nil {
			fixes[i], survs[i] = b.hardenBug(bug, lights[i], parent, hs, p)
			continue
		}
		pos, err := bug.FixSite(lights[i])
		if err != nil {
			p.op(fmt.Errorf("%s: fix site: %w", bug.Name, err))
			continue
		}
		fixes[i] = b.hardenDirect(lights[i], core.FixOptions(pos), parent, p)
		survs[i] = b.hardenDirect(lights[i], core.DefaultOptions(), parent, p)
	}
	for i, bug := range progs {
		light, fix, surv := lights[i], fixes[i], survs[i]
		cleanSurv := b.hardenDirect(b.program(bug, bugs.Config{Light: true}, parent), core.DefaultOptions(), parent, p)
		if fix == nil || surv == nil || cleanSurv == nil {
			continue
		}
		b.compile(parent, light, fix.Module, surv.Module, cleanSurv.Module)
		for _, seed := range sliceSeeds {
			bs.forced = append(bs.forced,
				newRunJob(bug.Name+"/fix", fix.Module, seed, -1),
				newRunJob(bug.Name+"/survival", surv.Module, seed, -1))
			bs.clean = append(bs.clean, newRunJob(bug.Name+"/survival", cleanSurv.Module, seed, -1))
		}
		if t := b.bugTarget(bug, light, surv.Module, parent, p); t != nil {
			bs.targets = append(bs.targets, t)
		}
	}
	return bs
}

// hardenBug runs the set-up's harden operations on a bug's light forced
// build, in fix and survival mode, sampled in hs. They come first in a
// set-up, while the heap is small, and each starts after any collection
// the heap is due for, so collection cycles driven by the rest of the
// set-up do not land inside them.
func (b *bench) hardenBug(bug *bugs.Bug, light *mir.Module, parent int, hs *series, p *pass) (fix, surv *core.Hardened) {
	text := b.printText(light, parent)
	collectBetweenPasses()
	fix = b.harden(&hardenJob{key: bug.Name + "/fix", text: text, bug: bug, seed: bugCheckSeed}, parent, hs, p)
	collectBetweenPasses()
	surv = b.harden(&hardenJob{key: bug.Name + "/survival", text: text, seed: bugCheckSeed}, parent, hs, p)
	return fix, surv
}

// bugTarget makes a detect target of a bug's light forced build.
func (b *bench) bugTarget(bug *bugs.Bug, light, survival *mir.Module, parent int, p *pass) *target {
	fail, err := b.findFailure(light, runMaxSteps, parent)
	if err != nil {
		p.op(err)
		return nil
	}
	return b.newTarget(bug.Name, bug.Name, light, survival, fail, runMaxSteps, p)
}

// detectPhase searches and triages every target once per pass.
func (b *bench) detectPhase(share float64, targets []*target) phase {
	return phase{
		name:  "detect",
		share: share,
		tp:    func(m *measurement) *series { return m.verdicts },
		warm: func() {
			for _, t := range targets {
				interp.Compile(t.search)
				interp.Compile(t.fail)
			}
		},
		run: func(m *measurement, parent int, first bool) *pass {
			if first {
				m.winners = nil // keep the current round's, whose modules are cached
			}
			p := &pass{}
			for _, t := range targets {
				// A search or triage allocates enough that a collection due
				// mid-pass would land inside one; run it between targets.
				start := time.Now()
				collectBetweenPasses()
				p.untimed += time.Since(start)
				w, ok := b.detect(t, parent, m.verdicts, m.triages, p)
				if first && ok {
					m.winners = append(m.winners, w)
				}
			}
			return p
		},
	}
}

// runPhase runs jobs once per pass on the engine's worker pool.
func (b *bench) runPhase(name string, share float64, sel func(m *measurement) *series, jobs []runJob) phase {
	return phase{
		name:  name,
		share: share,
		tp:    sel,
		warm: func() {
			for _, j := range jobs {
				interp.Compile(j.mod)
			}
		},
		run: func(m *measurement, parent int, _ bool) *pass {
			return b.runBatch(b.engine(m), jobs, parent, sel(m))
		},
	}
}

func forcedSeries(m *measurement) *series { return m.forced }
func cleanSeries(m *measurement) *series  { return m.clean }

// setupRecovery builds the recovery workload: the 13 programs' light
// forced-failure builds hardened from MIR text in fix and survival mode
// (the harden samples of this workload), their full failure-free builds
// in all three variants, and scheduler seeds drawn from the seed. Forced
// seeds come from the paper's 1000-run range, where every hardened build
// recovers; every full build also runs under seed 1, the Table 5 oracle.
func (b *bench) setupRecovery(parent int, p *pass, hs *series) *plan {
	sz := b.sizes()
	rng := rand.New(rand.NewSource(b.opt.seed))
	progs := programs()
	lights := make([]*mir.Module, len(progs))
	fixes := make([]*core.Hardened, len(progs))
	survs := make([]*core.Hardened, len(progs))
	for i, bug := range progs {
		lights[i] = b.program(bug, bugs.Config{Light: true, ForceBug: true}, parent)
		fixes[i], survs[i] = b.hardenBug(bug, lights[i], parent, hs, p)
	}
	var forced, clean []runJob
	var targets []*target
	for i, bug := range progs {
		light, fix, surv := lights[i], fixes[i], survs[i]
		full := b.program(bug, bugs.Config{}, parent)
		pos, err := bug.FixSite(full)
		if err != nil {
			p.op(fmt.Errorf("%s: fix site: %w", bug.Name, err))
			continue
		}
		cleanFix := b.hardenDirect(full, core.FixOptions(pos), parent, p)
		cleanSurv := b.hardenDirect(full, core.DefaultOptions(), parent, p)
		if fix == nil || surv == nil || cleanFix == nil || cleanSurv == nil {
			continue
		}
		b.compile(parent, light, full, cleanFix.Module, cleanSurv.Module)

		for range sz.forcedSeeds {
			seed := rng.Int63n(1000)
			forced = append(forced,
				newRunJob(bug.Name+"/fix", fix.Module, seed, -1),
				newRunJob(bug.Name+"/survival", surv.Module, seed, -1))
		}
		seeds := []int64{1}
		for range sz.cleanSeeds {
			seeds = append(seeds, 2+rng.Int63n(19))
		}
		t5, inTable5 := b.oracle.Table5[bug.Name]
		for _, seed := range seeds {
			want := func(n int64) int64 {
				if seed == 1 && inTable5 {
					return n
				}
				return -1
			}
			clean = append(clean,
				newRunJob(bug.Name+"/original", full, seed, want(0)),
				newRunJob(bug.Name+"/fix", cleanFix.Module, seed, want(t5.Fix)),
				newRunJob(bug.Name+"/survival", cleanSurv.Module, seed, want(t5.Survival)))
		}
		if t := b.bugTarget(bug, light, surv.Module, parent, p); t != nil {
			targets = append(targets, t)
		}
	}
	return &plan{
		phases: []phase{
			b.runPhase("forced", 0.45, forcedSeries, forced),
			b.runPhase("clean", 0.30, cleanSeries, clean),
			b.detectPhase(0.25, targets),
		},
		forced:   forced,
		headline: "recovery_runs_per_s",
	}
}

// sizeClass is one mirgen program size.
type sizeClass struct {
	name         string
	funcs, stmts int
}

var sizeClasses = []sizeClass{{"small", 2, 8}, {"medium", 4, 16}, {"large", 8, 32}}

// setupHarden builds the harden workload: a stream of mirgen programs as
// MIR text covering all 8 templates, three size classes and 0-2 worker
// threads, plus the 13 programs' light forced builds in survival and fix
// mode. The slices run on the 13 programs.
func (b *bench) setupHarden(parent int, p *pass, _ *series) *plan {
	sz := b.sizes()
	rng := rand.New(rand.NewSource(b.opt.seed))
	var jobs []hardenJob
	for kind := mirgen.BugNone; kind <= mirgen.BugCASABA; kind++ {
		for _, class := range sizeClasses {
			for threads := 0; threads <= 2; threads++ {
				for i := range sz.streamSeeds {
					cfg := mirgen.Config{Seed: rng.Int63(), Funcs: class.funcs, StmtsPerFunc: class.stmts, Threads: threads, Bug: kind}
					checkSeed := rng.Int63n(1000)
					key := fmt.Sprintf("%v/%s/t%d/%d", kind, class.name, threads, i)
					sp := b.tr.begin("mirgen.GenWithInfo", parent)
					m, info := mirgen.GenWithInfo(cfg)
					b.tr.end(sp, 0)
					j := hardenJob{key: key, text: b.printText(m, parent), seed: checkSeed}
					if info != nil {
						b.checkLabel(info, p)
						jobs = append(jobs, j)
						continue
					}
					// The unhardened failure-free program's output is the
					// oracle its hardened build must reproduce.
					sp = b.tr.begin("interp.RunModule", parent)
					r := interp.RunModule(m, interp.Config{Sched: sched.NewRandom(checkSeed), MaxSteps: checkMaxSteps, CollectOutput: true})
					b.tr.end(sp, r.Stats.Steps)
					if !r.Completed {
						p.op(fmt.Errorf("%s: failure-free program failed: %v", key, r.Failure))
						continue
					}
					j.ref = referenceOf(r)
					jobs = append(jobs, j)
				}
			}
		}
	}
	for _, bug := range programs() {
		text := b.printText(b.program(bug, bugs.Config{Light: true, ForceBug: true}, parent), parent)
		jobs = append(jobs,
			hardenJob{key: bug.Name + "/fix", text: text, bug: bug, seed: bugCheckSeed},
			hardenJob{key: bug.Name + "/survival", text: text, seed: bugCheckSeed})
	}
	bs := b.prepareBugs(parent, p, nil)
	hardenPhase := phase{
		name:  "harden",
		share: 0.55,
		tp:    func(m *measurement) *series { return m.harden },
		run: func(m *measurement, parent int, _ bool) *pass {
			p := &pass{}
			for i := range jobs {
				b.harden(&jobs[i], parent, m.harden, p)
			}
			// Every operation compiles a fresh module; without the flush
			// the compiled-program cache pins each pass's modules until it
			// overflows.
			start := time.Now()
			flushCaches()
			p.untimed = time.Since(start)
			return p
		},
	}
	return &plan{
		phases: []phase{
			hardenPhase,
			b.runPhase("forced", 0.15, forcedSeries, bs.forced),
			b.runPhase("clean", 0.10, cleanSeries, bs.clean),
			b.detectPhase(0.20, bs.targets),
		},
		forced:   bs.forced,
		headline: "harden_modules_per_s",
	}
}

// drawTemplate generates a mirgen template of kind from rng together with
// a schedule on which it fails. A template whose bug no schedule
// findFailure tries manifests cannot be triaged, so it is drawn again, at
// most 16 times.
func (b *bench) drawTemplate(kind mirgen.BugKind, rng *rand.Rand, parent int, p *pass) (*mir.Module, schedSpec, bool) {
	var err error
	for range 16 {
		sp := b.tr.begin("mirgen.GenWithInfo", parent)
		m, info := mirgen.GenWithInfo(mirgen.Config{Seed: rng.Int63(), Bug: kind})
		b.tr.end(sp, 0)
		var fail schedSpec
		if fail, err = b.findFailure(m, checkMaxSteps, parent); err == nil {
			b.checkLabel(info, p)
			return m, fail, true
		}
	}
	p.op(fmt.Errorf("%v template: %w", kind, err))
	return nil, schedSpec{}, false
}

// setupDetect builds the detect workload: the 13 programs' light forced
// builds, hardened from MIR text (the harden samples of this workload),
// and seeded mirgen templates of the 7 bug kinds, each labelled from the
// oracle. The run slices run on the 13 programs.
func (b *bench) setupDetect(parent int, p *pass, hs *series) *plan {
	sz := b.sizes()
	rng := rand.New(rand.NewSource(b.opt.seed))
	bs := b.prepareBugs(parent, p, hs)
	targets := bs.targets
	for kind := mirgen.BugOrder; kind <= mirgen.BugCASABA; kind++ {
		for i := range sz.templateSeeds {
			m, fail, ok := b.drawTemplate(kind, rng, parent, p)
			if !ok {
				continue
			}
			h := b.hardenDirect(m, core.DefaultOptions(), parent, p)
			if h == nil {
				continue
			}
			b.compile(parent, m, h.Module)
			if t := b.newTarget(fmt.Sprintf("%v/%d", kind, i), kind.String(), m, h.Module, fail, templateSearchSteps, p); t != nil {
				targets = append(targets, t)
			}
		}
	}
	return &plan{
		phases: []phase{
			b.detectPhase(0.65, targets),
			b.runPhase("forced", 0.20, forcedSeries, bs.forced),
			b.runPhase("clean", 0.15, cleanSeries, bs.clean),
		},
		forced:   bs.forced,
		headline: "detect_targets_per_s",
	}
}
