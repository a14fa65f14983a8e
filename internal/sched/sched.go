// Package sched provides the thread schedulers used by the MIR interpreter.
//
// ConAir's evaluation methodology depends on controlling interleavings: the
// paper injects sleeps into buggy regions so the failure-inducing
// interleaving occurs with ~100% probability, then repeats runs 1000 times.
// The interpreter reproduces that with deterministic, seeded schedulers:
// the same (program, scheduler, seed) triple always yields the same
// interleaving, so experiments are exactly repeatable.
package sched

// Scheduler picks which runnable thread executes the next instruction. A
// scheduler is also the interpreter's source of randomness (for the
// sleeprand livelock-avoidance instruction), keeping whole runs
// reproducible from one seed.
type Scheduler interface {
	// Pick returns an element of runnable. runnable is never empty and is
	// sorted by thread id. Pick must neither keep nor modify runnable: the
	// interpreter hands it the slice it caches the runnable set in, and
	// reuses that slice for later picks while the set cannot have changed.
	Pick(runnable []int, step int64) int
	// Intn returns a uniform value in [0, n); n > 0.
	Intn(n int) int
	// Name identifies the scheduler in reports.
	Name() string
}

// Stayer is an optional Scheduler extension for schedules that hold
// still. Between two changes of the runnable set, PCT keeps picking its
// highest-priority thread until the next change point, and a replay keeps
// picking a segment's thread until the segment ends; asking Pick once per
// instruction re-decides what cannot have changed. A Stayer says how long
// a decision holds, and the interpreter takes the picks in between without
// calling Pick.
//
// Both methods are keyed to a pick that just returned tid over runnable.
// The coming picks are over the same runnable set at the consecutive steps
// step, step+1, ...
type Stayer interface {
	// Stay returns how many of the coming picks are certainly tid: k >= 0,
	// or math.MaxInt64 when the decision holds for good. It is a pure
	// query and changes no state.
	Stay(tid int, runnable []int, step int64) int64
	// Advance commits k of the picks Stay allowed (several calls may
	// split them), leaving the scheduler exactly as k Pick calls
	// returning tid would.
	Advance(tid int, k int64)
}

// Yielder is an optional Scheduler extension for schedulers that keep
// priorities. The interpreter calls Yield when thread tid rolls back: a
// retry of a failed region is a yield that made no progress, and under a
// fairness rule such a thread gives way (CHESS's fair scheduling,
// Musuvathi & Qadeer, PLDI 2008). Without it a strict-priority schedule
// keeps the spinning thread on top, the thread whose write would let the
// retry pass never runs, and recovery ends at the retry bound. A real OS
// preempts a spinning thread, which is what the paper relies on.
// Schedulers with no priorities (Random, RoundRobin, SegmentReplay, whose
// recorded picks already carry the effect) do not implement it.
type Yielder interface {
	// Yield demotes tid below every thread seen so far.
	Yield(tid int)
}

// Random schedules uniformly at random among runnable threads.
//
// Determinism contract: the stream is bit-identical to
// math/rand.New(rand.NewSource(seed)) — Pick and Intn return the values,
// and consume the draws, that rand.(*Rand).Intn would. The interpreter
// spends exactly one draw per executed instruction. With one live thread
// every such draw picks that thread, so a quantum of k instructions may
// advance the stream with Skip(k) instead of k draws; either way the
// stream sits at the same position afterwards, and every later decision
// is unchanged (pinned by TestSourceMatchesMathRand, the superblock
// parity tests and the golden experiment fingerprints).
//
// Seeding is lazy: NewRandom stores the seed, and the first draws build
// the generator's first block a short chunk at a time, so a run pays for
// the register words its draws need — all 607 once it has drawn 334
// values or skipped past them.
type Random struct {
	// src is held by value: NewRandom is one allocation, and the hot
	// draw is a field load, not an interface call.
	src source
}

// NewRandom returns a seeded random scheduler.
func NewRandom(seed int64) *Random {
	r := new(Random)
	r.src.seed(seed)
	return r
}

// Pick implements Scheduler.
func (r *Random) Pick(runnable []int, _ int64) int {
	return runnable[r.Intn(len(runnable))]
}

// Intn implements Scheduler with the values and draws of
// rand.(*Rand).Intn; it panics on n <= 0.
func (r *Random) Intn(n int) int { return r.src.Intn(n) }

// ReduceDraw reduces a raw Int31 draw v to a uniform index in [0, n),
// consuming further draws only in math/rand's modulo-rejection case. The
// interpreter's dispatch loop calls Int31 + ReduceDraw inline and gets
// the bit-identical value stream — and draw count — Intn would produce.
func (r *Random) ReduceDraw(v, n int32) int32 {
	if n&(n-1) == 0 {
		return v & (n - 1)
	}
	return r.src.reduceTail(v, n)
}

// Int31 returns the next raw draw, identical to math/rand.(*Rand).Int31.
// It is small enough to inline, so hot callers split Intn into an inlined
// draw plus a rarely needed ReduceDraw tail.
func (r *Random) Int31() int32 { return r.src.Int31() }

// Skip advances the stream by n >= 0 draws — exactly as n discarded Int31
// calls would — at the cost of the generator refills it crosses. The
// interpreter uses it for one-live-thread quanta, where each of the n
// draws could only have picked the thread already running.
func (r *Random) Skip(n int64) { r.src.Skip(n) }

// Name implements Scheduler.
func (r *Random) Name() string { return "random" }

// RoundRobin rotates through runnable threads, switching after quantum
// instructions (quantum 1 interleaves maximally; a large quantum
// approximates run-to-block).
type RoundRobin struct {
	quantum int64
	src     source
}

// NewRoundRobin returns a round-robin scheduler with the given quantum.
// The seed only feeds Intn (used by sleeprand).
func NewRoundRobin(quantum int64, seed int64) *RoundRobin {
	if quantum < 1 {
		quantum = 1
	}
	r := &RoundRobin{quantum: quantum}
	r.src.seed(seed)
	return r
}

// Pick implements Scheduler.
func (r *RoundRobin) Pick(runnable []int, step int64) int {
	return runnable[int(step/r.quantum)%len(runnable)]
}

// Intn implements Scheduler.
func (r *RoundRobin) Intn(n int) int { return r.src.Intn(n) }

// Name implements Scheduler.
func (r *RoundRobin) Name() string { return "round-robin" }

// Scripted replays a fixed prefix of thread choices, then falls back to a
// seeded random scheduler. It pins down one exact interleaving prefix —
// the forced buggy interleaving — while letting the rest of the run proceed
// normally.
type Scripted struct {
	script []int
	pos    int
	fall   *Random
}

// NewScripted returns a scheduler that prefers the scripted thread ids in
// order; when the scripted thread is not runnable the entry is retried at
// the next step (the scripted thread may be sleeping deliberately).
func NewScripted(script []int, seed int64) *Scripted {
	return &Scripted{script: script, fall: NewRandom(seed)}
}

// Pick implements Scheduler.
func (s *Scripted) Pick(runnable []int, step int64) int {
	if s.pos < len(s.script) {
		want := s.script[s.pos]
		for _, t := range runnable {
			if t == want {
				s.pos++
				return t
			}
		}
		// The wanted thread is blocked or sleeping: let someone else run
		// without consuming the script entry.
	}
	return s.fall.Pick(runnable, step)
}

// Intn implements Scheduler.
func (s *Scripted) Intn(n int) int { return s.fall.Intn(n) }

// Name implements Scheduler.
func (s *Scripted) Name() string { return "scripted" }
