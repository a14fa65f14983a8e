package experiments

import (
	"sync"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/runner"
)

// eng is the worker pool every experiment sweep fans out on. The zero
// value runs on GOMAXPROCS workers; SetWorkers overrides (1 pins the
// sequential reference path the determinism tests compare against).
var eng runner.Engine

// SetWorkers sets the worker-pool size for all experiment sweeps; n <= 0
// restores the GOMAXPROCS default. Returns the previous setting.
func SetWorkers(n int) int {
	prev := eng.Workers
	eng.Workers = n
	return prev
}

// SetEngine replaces the engine every experiment sweep fans out on —
// its pool size, graceful-drain flag, watchdog, run hook and flight recorder —
// keeping the experiment metrics registry. conair-bench configures its
// sweep this way. Not safe to call while sweeps are in flight.
func SetEngine(e runner.Engine) {
	e.Reg = reg
	eng = e
}

// preparedBug caches every program variant and default hardening of one
// bug, so each is built once per process instead of once per table. All
// construction is deterministic and the interpreter never mutates a
// module, so sharing prepared modules across tables — and across worker
// goroutines — cannot change any result.
type preparedBug struct {
	bug  *bugs.Bug
	once sync.Once

	forced     *mir.Module    // light workload, forced failure
	forcedFull *mir.Module    // full workload, forced failure
	clean      *mir.Module    // full workload, failure-free
	lightClean *mir.Module    // light workload, failure-free
	forcedFix  *core.Hardened // forced, fix-mode hardened
	forcedSurv *core.Hardened // forced, survival hardened
	cleanFix   *core.Hardened
	cleanSurv  *core.Hardened
}

// prepared has one entry per paper and corpus bug. It is filled when the
// package initializes and only read afterwards; each entry builds itself
// on first use under its own once, so distinct bugs build concurrently
// while repeat callers block only on their own bug.
var prepared = func() map[string]*preparedBug {
	m := map[string]*preparedBug{}
	for _, b := range append(bugs.All(), bugs.Corpus()...) {
		m[b.Name] = &preparedBug{bug: b}
	}
	return m
}()

// prep returns the preparation for b, building it on first use.
func prep(b *bugs.Bug) *preparedBug {
	p := prepared[b.Name]
	if p == nil {
		panic("experiments: " + b.Name + " is neither a paper nor a corpus bug")
	}
	p.once.Do(p.build)
	return p
}

func (p *preparedBug) build() {
	b := p.bug
	p.forced = b.Program(bugs.Config{Light: true, ForceBug: true})
	p.forcedFull = b.Program(bugs.Config{ForceBug: true})
	p.clean = b.Program(bugs.Config{})
	p.lightClean = b.Program(bugs.Config{Light: true})

	fPos, err := b.FixSite(p.forced)
	if err != nil {
		panic(err)
	}
	cPos, err := b.FixSite(p.clean)
	if err != nil {
		panic(err)
	}
	p.forcedFix = mustHarden(p.forced, core.FixOptions(fPos))
	p.forcedSurv = mustHarden(p.forced, core.DefaultOptions())
	p.cleanFix = mustHarden(p.clean, core.FixOptions(cPos))
	p.cleanSurv = mustHarden(p.clean, core.DefaultOptions())

	// Warm the interpreter's compiled-program cache while we hold this
	// bug's once: sweeps then start from a hit instead of racing worker
	// goroutines through the first compile of each variant.
	for _, m := range []*mir.Module{
		p.forced, p.forcedFull, p.clean, p.lightClean,
		p.forcedFix.Module, p.forcedSurv.Module,
		p.cleanFix.Module, p.cleanSurv.Module,
	} {
		interp.Compile(m)
	}
}

// expMaxSteps is the step cutoff shared by all experiment runs.
const expMaxSteps = 200_000_000
