// Package interp executes MIR modules under a controllable multi-threaded
// virtual machine. It is the substrate standing in for pthreads, the OS
// scheduler and setjmp/longjmp in the ConAir reproduction:
//
//   - threads run MIR functions over a shared flat address space of
//     globals and heap blocks, with per-frame virtual registers and stack
//     slots;
//   - a pluggable, seeded scheduler decides which thread steps next, so
//     failure-inducing interleavings are forcible and runs are repeatable;
//   - locks support acquisition timeouts (pthread_mutex_timedlock);
//   - the ConAir recovery instructions (checkpoint, rollback) implement
//     single-threaded idempotent reexecution: checkpoint snapshots the
//     current frame's register image and program counter, rollback
//     compensates region-acquired resources and longjmps back;
//   - failures (assert violations, wrong outputs, segfaults, deadlocks,
//     hangs) are detected and reported with their site and position.
package interp

import (
	"sync/atomic"

	"conair/internal/mir"
	"conair/internal/obs"
	"conair/internal/sched"
)

// Address-space layout. Addresses at or below LowerBound are invalid to
// dereference; ConAir's transformed pointer sanity check tests p >
// LowerBound exactly as in Figure 5c of the paper.
const (
	// LowerBound is the paper's default invalid-pointer boundary (10,000).
	LowerBound mir.Word = 10000
	// GlobalBase is the address of global index 0.
	GlobalBase mir.Word = 1 << 20
	// HeapBase is the first heap address.
	HeapBase mir.Word = 1 << 30
	// MaxHeapWords bounds the words a run allocates (32 MB), far beyond
	// what any workload allocates. An alloc that would pass it yields the
	// null address 0, as a failed malloc returns NULL.
	MaxHeapWords mir.Word = 1 << 22
)

// Config controls one interpreter run.
type Config struct {
	// Sched picks the next thread; required. Use sched.NewRandom(seed)
	// for the repeated-run experiments.
	Sched sched.Scheduler
	// MaxSteps aborts the run with a hang failure once its virtual time
	// (Stats.Steps: executed instructions plus fast-forwarded sleeps)
	// reaches this many steps (0 means the DefaultMaxSteps cutoff). It is
	// the stand-in for "the program stopped responding".
	MaxSteps int64
	// CollectOutput retains output events in the result (on by default in
	// Run helpers; costs memory on long runs).
	CollectOutput bool
	// Sink, when non-nil, receives structured trace events (scheduling
	// decisions, checkpoints, rollbacks, recovery episodes, lock and
	// thread lifecycle events, failures, outputs). Recording is passive:
	// a traced run is bit-identical to an untraced one. When nil — the
	// default — the dispatch loop pays only a pointer check per event
	// site and allocates nothing.
	Sink *obs.Tracer
	// Sanitizer, when non-nil, receives synchronization and shared-memory
	// events for dynamic race and deadlock detection (see the Sanitizer
	// interface). It has the same contract as Sink: observation is
	// passive — a sanitized run is bit-identical to an unsanitized one —
	// and the nil default costs one pointer check per hook site with zero
	// allocations.
	Sanitizer Sanitizer
	// Interrupt, when non-nil, is a cooperative cancellation flag: the run
	// loop polls it every interruptPeriod steps and aborts the run with a
	// hang failure ("interrupted") once it reads true. It is the runner's
	// wall-clock watchdog hook; unlike MaxSteps the abort point is
	// timing-dependent, so interrupted runs are not deterministic. When
	// nil — the default — the loop pays one pointer compare per poll site
	// and nothing else.
	Interrupt *atomic.Bool
}

// DefaultMaxSteps is the step cutoff of a Config whose MaxSteps is 0.
const DefaultMaxSteps = int64(50_000_000)

// maxThreads bounds thread creation: a spawn past it fails the run with a
// hang.
const maxThreads = 256

func (c *Config) maxSteps() int64 {
	if c.MaxSteps > 0 {
		return c.MaxSteps
	}
	return DefaultMaxSteps
}
