// Package runner is the parallel batch-execution engine for seeded
// interpreter runs. The ConAir evaluation is embarrassingly parallel —
// every (module, seed) pair is an independent, deterministic run — so the
// engine fans jobs across a worker pool sized to GOMAXPROCS while keeping
// results in deterministic job order: Map's result slice is indexed by job,
// never by completion time, so a parallel sweep is bit-for-bit identical
// to the sequential one.
//
// Modules are shared read-only across workers (the interpreter never
// mutates its module), and each job constructs its own scheduler, so runs
// never share mutable state.
//
// The engine is also the process's robustness boundary: a panicking job
// becomes a failed result (mir.FailPanic) with its stack captured instead
// of killing the pool, per-job wall-clock watchdogs abort wedged runs via
// the interpreter's cooperative Interrupt flag, and a Stop flag drains the
// pool gracefully (running jobs finish, queued jobs are skipped).
//
// RunHook is the one route from a finished run to its report and its
// file: the live run registry (internal/obs/serve) and conair-bench
// -record both install themselves there. Every run reaches it; a run the
// engine's watchdog stopped arrives as a hang without a recording.
//
// A search for the first seed with some outcome (AllComplete, and the
// sanitizer and Figure 2 searches in internal/experiments) walks its
// seeds in order on one worker and stops at the hit, so the runs it makes
// do not depend on the pool size; the parallelism is in the Map over
// programs or patterns around it.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/obs"
	"conair/internal/replay"
	"conair/internal/sched"
)

// Engine executes batches of independent jobs on a fixed worker pool.
// The zero value is ready to use and runs on GOMAXPROCS workers.
type Engine struct {
	// Workers is the pool size; 0 or negative selects GOMAXPROCS.
	Workers int
	// Reg, when non-nil, receives engine metrics: batch and job counters,
	// queue depth, per-job latency histogram, and per-worker job/busy-time
	// counters (engine_worker_<k>_*) from which utilization is derived.
	// Instrumentation never affects job order or results.
	Reg *obs.Registry
	// Stop, when non-nil, is the graceful-drain flag: once it reads true
	// no further jobs are dispatched; jobs already running finish
	// normally. A stopped batch's results are partial — AllComplete's
	// verdict from a stopped engine must not be trusted as exhaustive.
	// SIGINT handling in conair-bench sets it.
	Stop *atomic.Bool
	// JobTimeout, when positive, arms a per-run wall-clock watchdog on
	// every interpreter job the engine executes (AllComplete, RunJob): the
	// run is interrupted cooperatively via interp.Config.Interrupt — the
	// caller's flag when it supplied one — and comes back as a hang
	// failure instead of wedging a worker forever. The watchdog is the
	// engine's only setter of that flag.
	JobTimeout time.Duration
	// RunHook, when non-nil, is called after every interpreter job the
	// engine executes (AllComplete, RunJob) with the run's provenance,
	// result, latency, and — when FlightLimit is set — its schedule
	// recording. A run stopped through Config.Interrupt reaches it as a
	// hang without a recording, because where the stop landed depends on
	// wall-clock time. The hook runs on worker goroutines and must be
	// safe for concurrent use; it observes results, never alters them.
	RunHook RunHook
	// FlightLimit, when positive, arms a bounded flight recorder on every
	// job (a sched.FlightRecorder keeping the first FlightLimit segments
	// and draws of the run's schedule): any failing run yields a complete
	// replayable recording in its RunInfo without -record having been
	// asked for, while a long healthy run outgrows the buffers, is marked
	// truncated and costs only their memory. math.MaxInt never
	// truncates. Use DefaultFlightLimit unless there is a reason not to.
	FlightLimit int
}

// DefaultFlightLimit is the flight-recorder bound engines should use
// unless they have a reason not to.
const DefaultFlightLimit = sched.DefaultFlightSegments

// RunInfo is one executed job's telemetry record, delivered to RunHook.
type RunInfo struct {
	// Label and Seed are the job's replay.Meta provenance (Label is the
	// bug or module name by convention).
	Label string
	Seed  int64
	// Sched names the job's scheduler ("random", "pct", ...).
	Sched string
	// Elapsed is the job's wall-clock latency.
	Elapsed time.Duration
	// Result is the run's outcome (never nil; a panicked job arrives as a
	// mir.FailPanic result).
	Result *interp.Result
	// Recording is the job's schedule recording when FlightLimit is set;
	// nil otherwise, nil when the run outgrew the flight recorder (see
	// RecordingTruncated), and nil when the engine's watchdog stopped the
	// run, whose stop step depends on wall-clock time.
	Recording *replay.Recording
	// RecordingTruncated reports that the run was flight-recorded but
	// outgrew the recorder, so only a prefix of its schedule was kept,
	// which cannot replay.
	RecordingTruncated bool
	// RecordingPath is where a hook earlier in a chain wrote Recording
	// ("" otherwise). The engine never sets it.
	RecordingPath string
}

// RunHook observes completed jobs; see Engine.RunHook.
type RunHook func(RunInfo)

// stopped reports whether the graceful-drain flag is set.
func (e Engine) stopped() bool { return e.Stop != nil && e.Stop.Load() }

// workers resolves the pool size.
func (e Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(0..n-1) across the pool and returns the results in job
// order. fn must be safe for concurrent invocation on distinct indices.
func Map[T any](e Engine, n int, fn func(i int) T) []T {
	out := make([]T, n)
	e.each(n, func(i int) { out[i] = fn(i) })
	return out
}

// workerObs is one worker's metric handles.
type workerObs struct {
	jobs, busy *obs.Counter
}

// instr is the per-batch instrumentation state; nil when the engine has
// no registry, so the uninstrumented path costs one nil check per job.
type instr struct {
	jobs    *obs.Counter
	depth   *obs.Gauge
	latency *obs.Histogram
	workers []workerObs
	settled atomic.Int64 // jobs that individually left the queue
}

// newInstr registers the batch in reg and returns per-batch handles.
func newInstr(reg *obs.Registry, w, n int) *instr {
	reg.Counter("engine_batches_total").Inc()
	reg.Gauge("engine_workers").Set(int64(w))
	in := &instr{
		jobs:    reg.Counter("engine_jobs_total"),
		depth:   reg.Gauge("engine_queue_depth"),
		latency: reg.Histogram("engine_job_ns", obs.ExpBuckets(10_000, 10, 7)),
		workers: make([]workerObs, w),
	}
	in.depth.Add(int64(n))
	for k := 0; k < w; k++ {
		in.workers[k] = workerObs{
			jobs: reg.Counter(fmt.Sprintf("engine_worker_%d_jobs_total", k)),
			busy: reg.Counter(fmt.Sprintf("engine_worker_%d_busy_ns_total", k)),
		}
	}
	return in
}

// run executes one job under instrumentation (worker is the pool slot).
// The accounting is deferred so a job that panics still leaves the queue
// and still charges its worker for the time it burned.
func (in *instr) run(worker, i int, fn func(i int)) {
	start := time.Now()
	defer func() {
		ns := time.Since(start).Nanoseconds()
		in.jobs.Inc()
		in.depth.Add(-1)
		in.settled.Add(1)
		in.latency.Observe(ns)
		in.workers[worker].jobs.Inc()
		in.workers[worker].busy.Add(ns)
	}()
	fn(i)
}

// each is the pool core: an atomic job cursor drained by w workers. The
// Stop flag and a panicking fn stop the dispatch of new jobs.
func (e Engine) each(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := e.workers()
	if w > n {
		w = n
	}
	var in *instr
	if e.Reg != nil {
		in = newInstr(e.Reg, w, n)
		// Jobs that never run — skipped after the Stop flag or a panic —
		// must still leave the queue-depth gauge. One deferred
		// reconciliation covers every exit path (including a re-raised
		// panic); on a full batch settled == n and this is a no-op.
		defer func() { in.depth.Add(-(int64(n) - in.settled.Load())) }()
	}
	call := fn
	if w == 1 {
		// Sequential fast path: no goroutines, same semantics.
		if in != nil {
			call = func(i int) { in.run(0, i, fn) }
		}
		for i := 0; i < n && !e.stopped(); i++ {
			call(i)
		}
		return
	}
	var (
		cursor    atomic.Int64
		panicked  atomic.Bool
		panicOnce sync.Once
		panicVal  any
	)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(worker int) {
			defer wg.Done()
			// A panic in fn would otherwise kill the whole process (an
			// unrecovered goroutine panic is fatal). Capture the first one,
			// stop dispatching, let the other workers drain, and re-raise it
			// from the caller's goroutine after wg.Wait.
			defer func() {
				if p := recover(); p != nil {
					panicOnce.Do(func() { panicVal = p })
					panicked.Store(true)
				}
			}()
			for !panicked.Load() && !e.stopped() {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if in != nil {
					in.run(worker, i, fn)
				} else {
					fn(i)
				}
			}
		}(k)
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// RunJob executes one interpreter run with the engine's hardening
// attached: the wall-clock watchdog (JobTimeout), schedule capture
// (FlightLimit) and panic containment. A panic inside the interpreter
// comes back as a failed result of kind mir.FailPanic whose message
// carries the panic value and stack — the pool and the remaining jobs are
// unaffected.
func (e Engine) RunJob(mod *mir.Module, cfg interp.Config, meta replay.Meta) (res *interp.Result) {
	start := time.Now()
	schedName := "random"
	if cfg.Sched != nil {
		schedName = cfg.Sched.Name()
	}
	if e.JobTimeout > 0 {
		if cfg.Interrupt == nil {
			cfg.Interrupt = new(atomic.Bool)
		}
		flag := cfg.Interrupt
		t := time.AfterFunc(e.JobTimeout, func() { flag.Store(true) })
		defer t.Stop()
	}
	var flight *replay.FlightCapture
	if e.FlightLimit > 0 {
		cfg, flight = replay.CaptureFlight(mod, cfg, meta, e.FlightLimit)
	}
	defer func() {
		if p := recover(); p != nil {
			res = &interp.Result{Failure: &interp.Failure{
				Kind: mir.FailPanic,
				Msg:  fmt.Sprintf("panic: %v\n%s", p, debug.Stack()),
			}}
		}
		stopped := res.Interrupted()
		var rec *replay.Recording
		truncated := false
		if flight != nil && !stopped {
			func() {
				// Building the artifact prints and hashes the module; a module
				// malformed enough to panic the interpreter can panic the
				// printer too. The contained FailPanic result must survive
				// even when no artifact can be built from it.
				defer func() {
					if recover() != nil {
						rec, truncated = nil, false
					}
				}()
				// Even a panicked run's partial schedule is worth keeping: it
				// is the prefix that drove the interpreter into the panic.
				rec = flight.Finish(res)
				truncated = rec == nil
			}()
		}
		if e.RunHook != nil {
			e.RunHook(RunInfo{
				Label:              meta.Label,
				Seed:               meta.Seed,
				Sched:              schedName,
				Elapsed:            time.Since(start),
				Result:             res,
				Recording:          rec,
				RecordingTruncated: truncated,
			})
		}
	}()
	return interp.RunModule(mod, cfg)
}

// SeedConfig is the standard experiment configuration for one seed.
func SeedConfig(seed, maxSteps int64) interp.Config {
	return interp.Config{Sched: sched.NewRandom(seed), MaxSteps: maxSteps}
}

// AllComplete runs mod under seeds 0..runs-1 in order and reports whether
// every run completed. It stops at the first incomplete run, so the runs
// it makes are the same at any pool size. Once the Stop flag is set it
// runs no further seed and reports false: the verdict is not exhaustive.
func (e Engine) AllComplete(mod *mir.Module, runs int, maxSteps int64) bool {
	for i := range runs {
		if e.stopped() {
			return false
		}
		if !e.RunJob(mod, SeedConfig(int64(i), maxSteps), replay.Meta{Seed: int64(i), Label: mod.Name}).Completed {
			return false
		}
	}
	return true
}
