// Command perfbench is the repository benchmark. It measures conair from
// outside, timing calls into each layer's public functions — mir.Parse
// and mir.Print, core.Harden, interp.Compile and interp.RunModule,
// runner.Engine.RunJob, experiments.SanitizeSearch, and the replay
// Encode, Decode, Verify and Minimize calls — over three workloads:
//
//   - recovery: forced-failure runs of the fix- and survival-hardened
//     light builds of the 10 paper bugs and 3 corpus models over random
//     scheduler seeds, then long failure-free runs of their full original,
//     fix and survival builds;
//   - harden: a seeded stream of mirgen programs plus the 13 programs,
//     each parsed from MIR text, hardened, compiled cold, printed and run
//     once as a check, on a single goroutine;
//   - detect: a PCT sanitizer search to a verdict and triage of a failing
//     run (flight capture, encode, decode, verify, minimize) for each
//     labelled target.
//
// Every workload reports every end-to-end metric: the operations a
// workload does not focus on run as short slices over its own programs,
// or, for hardening on recovery and detect, are the set-up's own
// hardening. Each operation is checked against an oracle (oracle.json,
// the bug definitions and mirgen's labels); a mismatch counts as a failed
// operation.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload recovery --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object with keys correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones. With --trace 1 the run measures untraced, then again
// with spans recorded around every layer call, and reports the per-layer
// metrics, a self-time breakdown per layer and the tracing overhead; the
// spans are written to .bench_build/trace/.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"conair/internal/experiments"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/obs"
	"conair/internal/replay"
	"conair/internal/runner"
)

//go:embed oracle.json
var oracleJSON []byte

type oracleData struct {
	Targets map[string]truth `json:"targets"`
	Table5  map[string]struct {
		Survival int64 `json:"survival"`
		Fix      int64 `json:"fix"`
	} `json:"table5"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int
	tiny     bool
}

type bench struct {
	opt    options
	oracle oracleData
	tr     *tracer // nil while untraced
}

func (b *bench) sizes() sizes {
	if b.opt.tiny {
		return tinySizes
	}
	return fullSizes
}

// engine is the worker pool the run phases use; traced measurements
// instrument it.
func (b *bench) engine(m *measurement) runner.Engine {
	return runner.Engine{Workers: b.opt.workers, Reg: m.reg}
}

// measurement is one timed run of a workload: its set-ups and phases.
type measurement struct {
	forced, clean, harden, verdicts, triages *series
	// setupHarden holds the set-ups' harden operations; setupTimes each
	// set-up's wall time in seconds.
	setupHarden *series
	setupTimes  []float64
	// plan is the last set-up's plan.
	plan *plan
	// counts sums the first set-up and the first pass of every phase.
	counts    counts
	retries   []int64
	winners   []winner
	attempted int
	failures  []string
	reg       *obs.Registry // engine instrumentation; nil untraced
}

func newMeasurement(traced bool) *measurement {
	m := &measurement{forced: newSeries(), clean: newSeries(), harden: newSeries(),
		verdicts: newSeries(), triages: newSeries(), setupHarden: newSeries()}
	if traced {
		m.reg = obs.NewRegistry()
	}
	return m
}

func (m *measurement) absorb(p *pass) {
	m.attempted += p.attempted
	m.failures = append(m.failures, p.failures...)
}

// first records a phase's (or the set-up's) first pass; repeat checks a
// later pass against it.
func (m *measurement) first(p *pass) {
	m.absorb(p)
	m.counts.add(&p.c)
	m.retries = append(m.retries, p.retries...)
}

func (m *measurement) repeat(name string, p, first *pass) {
	m.absorb(p)
	m.attempted++
	if p.c != first.c {
		m.failures = append(m.failures, name+": a pass's unit counts differ from the first pass's")
	}
}

// closePass ends the current pass of every series; tp, the series the
// phase's throughput counts toward, gets the pass's wall time.
func (m *measurement) closePass(tp *series, wall time.Duration) {
	for _, s := range []*series{m.forced, m.clean, m.harden, m.verdicts, m.triages} {
		if s == tp {
			s.closePass(wall)
		} else {
			s.closePass(0)
		}
	}
}

// measure sets the workload up from scratch and runs every phase for its
// share of the round, once per round. Interleaving spreads every metric's
// samples, set-up included, over the whole run, so a slow drift in
// machine speed moves all metrics alike instead of landing on whichever
// phase ran at the time. Each set-up or pass after the first is also an
// operation: its unit counts must equal the first's.
func (b *bench) measure(traced bool) *measurement {
	m := newMeasurement(traced)
	var setupFirst *pass
	var firsts []*pass
	rounds := b.sizes().rounds
	for range rounds {
		p := b.setup(m)
		if setupFirst == nil {
			setupFirst = p
			m.first(p)
			firsts = make([]*pass, len(m.plan.phases))
		} else {
			m.repeat("setup", p, setupFirst)
		}
		phases := m.plan.phases
		spent := make([]time.Duration, len(phases))
		ran := make([]bool, len(phases))
		for {
			i := nextPhase(phases, spent, ran, b.opt.seconds/float64(rounds))
			if i < 0 {
				break
			}
			ph := phases[i]
			if ph.warm != nil {
				ph.warm()
			}
			collectBetweenPasses()
			root := b.tr.begin("bench."+ph.name, -1)
			start := time.Now()
			p := ph.run(m, root, !ran[i])
			wall := time.Since(start) - p.untimed
			b.tr.end(root, 0)
			spent[i] += wall
			ran[i] = true
			m.closePass(ph.tp(m), wall)
			if firsts[i] == nil {
				firsts[i] = p
				m.first(p)
			} else {
				m.repeat(ph.name, p, firsts[i])
			}
		}
	}
	return m
}

// nextPhase picks the phase whose next pass runs: a phase that has not
// run in this round yet, else the one furthest behind its share of the
// round's seconds; -1 once every phase has used its share. Passes of all
// phases thus alternate throughout the round, so every phase samples the
// host's speed over the whole run rather than over one stretch of it.
func nextPhase(phases []phase, spent []time.Duration, ran []bool, seconds float64) int {
	best, bestRatio := -1, 1.0
	for i, ph := range phases {
		if !ran[i] {
			return i
		}
		if r := spent[i].Seconds() / (ph.share * seconds); r < bestRatio {
			best, bestRatio = i, r
		}
	}
	return best
}

var heapMetrics = []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/memory/classes/heap/objects:bytes"}}

func printHeap() {
	metrics.Read(heapMetrics)
	fmt.Printf("# heap live %d objects %d\n", heapMetrics[0].Value.Uint64()>>20, heapMetrics[1].Value.Uint64()>>20)
	runtime.GC()
	metrics.Read(heapMetrics)
	fmt.Printf("# heap live %d objects %d\n", heapMetrics[0].Value.Uint64()>>20, heapMetrics[1].Value.Uint64()>>20)
	f, _ := os.Create(".bench_build/heap.prof")
	pprof.WriteHeapProfile(f)
	f.Close()
}

// collectBetweenPasses runs a collection, outside the timed passes, once
// the heap has used half its headroom over the live heap. The benchmark
// holds hundreds of megabytes of prepared modules, so a collection cycle
// that starts inside a pass marks them all and slows that pass by a
// varying amount; collecting between passes keeps most cycles out of the
// measurement while passes still pay for their own allocation.
func collectBetweenPasses() {
	metrics.Read(heapMetrics)
	live, objects := heapMetrics[0].Value.Uint64(), heapMetrics[1].Value.Uint64()
	if objects > live+live/2 {
		runtime.GC()
	}
}

// setup builds the workload's inputs from scratch, replacing the previous
// round's plan. Filling the compiled-program and artifact caches for the
// timed modules is part of it; emptying them of the previous round's
// modules is not.
func (b *bench) setup(m *measurement) *pass {
	m.plan = nil // let the previous round's modules go
	flushCaches()
	runtime.GC()
	root := b.tr.begin("bench.setup", -1)
	p := &pass{}
	start := time.Now()
	switch b.opt.workload {
	case "recovery":
		m.plan = b.setupRecovery(root, p, m.setupHarden)
	case "harden":
		m.plan = b.setupHarden(root, p, m.setupHarden)
	case "detect":
		m.plan = b.setupDetect(root, p, m.setupHarden)
	}
	m.setupTimes = append(m.setupTimes, time.Since(start).Seconds())
	m.setupHarden.closePass(0)
	b.tr.end(root, 0)
	return p
}

// Capacities of the process-wide caches keyed by module pointer:
// interp's compiled programs and replay's module text and hash. Neither
// cache can be reset from outside, and an insert that finds one full
// clears it completely.
const (
	programCacheCap  = 1024
	artifactCacheCap = 128
)

const flushText = "module flush\nfunc main() {\nentry:\n  ret 0\n}\n"

// flushCaches empties both caches, so that no module of an earlier
// set-up or harden pass stays cached (and pinned in memory): it
// inserts a full cache's worth of fresh throwaway modules, which forces
// the clear and leaves only throwaways behind.
func flushCaches() {
	for range programCacheCap {
		interp.Compile(mir.MustParse(flushText))
	}
	var rec *replay.Recording
	eng := flightEngine(&rec)
	for range artifactCacheCap {
		eng.RunJob(mir.MustParse(flushText), interp.Config{}, replay.Meta{})
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload: recovery, harden or detect")
	fs.Int64Var(&opt.seed, "seed", 1, "input seed")
	fs.Float64Var(&opt.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	// One worker by default: on a host that lends the process a few shared
	// cores, parallel workers measure their contention for them and the
	// race between a search's workers more than the program.
	fs.IntVar(&opt.workers, "workers", 1, "worker goroutines for engine batches and searches")
	fs.BoolVar(&opt.tiny, "tiny", false, "smoke-test input sizes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case opt.workload != "recovery" && opt.workload != "harden" && opt.workload != "detect":
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want recovery, harden or detect)\n", opt.workload)
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	case opt.seconds <= 0 || opt.workers < 1:
		fmt.Fprintln(stderr, "perfbench: --seconds and --workers must be positive")
		return 2
	}
	opt.trace = trace == 1

	b := &bench{opt: opt}
	if err := json.Unmarshal(oracleJSON, &b.oracle); err != nil {
		fmt.Fprintf(stderr, "perfbench: oracle.json: %v\n", err)
		return 1
	}
	// No process-global metric sinks: runs report only what the benchmark
	// reads from their results. SanitizeSearch fans out on the same number
	// of workers as the run phases.
	interp.SetMetricsRegistry(nil)
	replay.SetMetricsRegistry(nil)
	experiments.SetWorkers(opt.workers)

	env := environment(opt)
	res, report := b.execute()
	env["samples"] = report.samples
	envLine, err := json.Marshal(env)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if opt.trace {
		path, err := writeTrace(opt, env, report)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans written to %s\n", path)
	}
	for i, f := range report.failures {
		if i == 20 {
			fmt.Fprintf(stderr, "... and %d more failures\n", len(report.failures)-20)
			break
		}
		fmt.Fprintf(stderr, "FAIL %s\n", f)
	}
	fmt.Fprintf(stdout, "# env %s\n", envLine)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// runReport carries what the final output needs besides the metrics.
type runReport struct {
	failures []string
	samples  map[string]int
	// trace is the traced run's span summary and comparisons (trace mode).
	trace map[string]any
	spans []span
}

// execute measures and computes the result.
func (b *bench) execute() (*result, *runReport) {
	untraced := b.measure(false)
	rep := &runReport{samples: samples(untraced)}
	attempted := untraced.attempted
	rep.failures = untraced.failures
	e2e := b.endToEnd(untraced)
	metrics := e2e
	for _, q := range [][2]float64{{0.1, 0.75}, {0.05, 0.9}, {0, 1}} {
		inputQ, passQ = q[0], q[1]
		alt, _ := json.Marshal(b.endToEnd(untraced))
		fmt.Printf("# alt %v %s\n", q[0], alt)
	}
	{
		hs := untraced.harden
		if hs.count() == 0 {
			hs = untraced.setupHarden
		}
		alt, _ := json.Marshal(map[string]metric{"recovery_runs_per_s": {untraced.forced.derivedRate(), ""},
			"harden_modules_per_s": {hs.derivedRate(), ""}, "detect_targets_per_s": {untraced.verdicts.derivedRate(), ""},
			"setup_s": {quantile(untraced.setupTimes, 0), ""}})
		fmt.Printf("# alt derived %s\n", alt)
		printHeap()
	}
	inputQ, passQ = 0.5, 0.5

	if b.opt.trace {
		tr := newTracer()
		b.tr = tr
		cancelled := experiments.Registry().Counter("sanitize_search_seeds_cancelled_total").Value()
		busy0, jobs0 := engineTotals(experiments.Registry())
		traced := b.measure(true)
		b.tr = nil
		cancelled = experiments.Registry().Counter("sanitize_search_seeds_cancelled_total").Value() - cancelled
		busy1, jobs1 := engineTotals(experiments.Registry())
		busyOwn, jobsOwn := engineTotals(traced.reg)
		attempted += traced.attempted
		rep.failures = append(rep.failures, traced.failures...)

		prof := b.profile(traced.plan, traced.winners)
		rep.failures = append(rep.failures, prof.failures...)
		attempted += prof.attempted

		sum := tr.summarize()
		tracedE2E := b.endToEnd(traced)
		headline := traced.plan.headline
		metrics = b.perLayer(layerInputs{
			m:         traced,
			sum:       sum,
			prof:      prof,
			cancelled: cancelled,
			busy:      busy1 - busy0 + busyOwn,
			jobs:      jobs1 - jobs0 + jobsOwn,
			overhead:  100 * (e2e[headline].Value/tracedE2E[headline].Value - 1),
		})
		rep.trace = map[string]any{
			"end_to_end_untraced": e2e,
			"end_to_end_traced":   tracedE2E,
			"layer_self_s":        secondsMap(sum.LayerSelf),
			"calls":               sum.Calls,
			"input_median_ms": map[string]map[string]float64{
				"forced": traced.forced.medians(), "clean": traced.clean.medians(),
				"harden": traced.harden.medians(), "setup_harden": traced.setupHarden.medians(),
				"verdict": traced.verdicts.medians(), "triage": traced.triages.medians(),
			},
		}
		tr.mu.Lock()
		rep.spans = tr.spans
		tr.mu.Unlock()
	}
	return &result{
		Correct:   len(rep.failures) == 0,
		Attempted: attempted,
		Failed:    len(rep.failures),
		Metrics:   metrics,
	}, rep
}

func samples(m *measurement) map[string]int {
	return map[string]int{
		"setup_reps":      len(m.setupTimes),
		"forced_runs":     m.forced.count(),
		"clean_runs":      m.clean.count(),
		"harden_ops":      m.harden.count() + m.setupHarden.count(),
		"verdicts":        m.verdicts.count(),
		"triages":         m.triages.count(),
		"forced_passes":   len(m.forced.passes),
		"forced_inputs":   len(m.forced.keys),
		"clean_inputs":    len(m.clean.keys),
		"verdict_targets": len(m.verdicts.keys),
	}
}

func secondsMap(m map[string]time.Duration) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		out[k] = v.Seconds()
	}
	return out
}

// environment records what the figures depend on besides the code.
func environment(opt options) map[string]any {
	gogc, ok := os.LookupEnv("GOGC")
	if !ok {
		gogc = "100 (default)"
	}
	memlimit, ok := os.LookupEnv("GOMEMLIMIT")
	if !ok {
		memlimit = "off (default)"
	}
	return map[string]any{
		"workload":   opt.workload,
		"seed":       opt.seed,
		"seconds":    opt.seconds,
		"trace":      opt.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    opt.workers,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"gogc":       gogc,
		"gomemlimit": memlimit,
	}
}
