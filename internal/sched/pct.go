package sched

import (
	"math"
	"slices"
)

// PCT is a randomized priority scheduler in the style of probabilistic
// concurrency testing (Burckhardt et al.): each thread gets a random
// priority when first seen, the runnable thread with the highest priority
// always runs, and at d-1 random step counts the running thread's priority
// is demoted below everything else. Small d values find rare interleavings
// (like the unserializable interleavings behind atomicity violations) with
// provable probability — a useful complement to the forced-sleep
// methodology when hunting for bugs the test author has not located yet.
//
// A change point fires at most once, and only on a Pick at exactly its
// step: one the run steps over (sleep fast-forward jumps virtual time)
// never fires. Between change points, and while the runnable set holds,
// every pick is the same thread, so PCT is a Stayer. A thread that rolls
// back yields (Yielder): it is demoted as at a change point, so the
// thread it waits for gets to run.
type PCT struct {
	src source
	// prio is indexed by thread id; unseen marks a thread not seen yet.
	prio []int
	// change holds the distinct change-point steps in ascending order, and
	// fired[i] whether change[i] has fired.
	change []int64
	fired  []bool
	floor  int
}

// unseen is the priority slot of a thread PCT has not seen yet: below any
// drawn priority and any demotion floor.
const unseen = math.MinInt

// NewPCT returns a PCT scheduler with depth d (the number of priority
// change points) spread over an expected run of maxSteps steps. It draws
// the d−1 change points now and one priority per thread as Pick first
// sees it. Seeding is lazy, so up to eight such draws build 16 register
// words of the generator, not all 607.
func NewPCT(seed int64, d int, maxSteps int64) *PCT {
	p := &PCT{}
	p.src.seed(seed)
	if maxSteps < 1 {
		maxSteps = 1
	}
	for i := 0; i < d-1; i++ {
		p.change = append(p.change, p.src.Int63n(maxSteps))
	}
	slices.Sort(p.change)
	p.change = slices.Compact(p.change)
	p.fired = make([]bool, len(p.change))
	return p
}

// NewSearchPCT returns the PCT policy the sanitizer search and the conair
// CLI hunt bugs with: depth 3 (two change points), drawn over the first
// 64 steps.
func NewSearchPCT(seed int64) *PCT { return NewPCT(seed, 3, 64) }

// best returns the highest-priority thread of runnable, the first in
// runnable order on a tie, drawing a priority for each thread seen for
// the first time, in runnable order.
func (p *PCT) best(runnable []int) int {
	best, bestPrio := runnable[0], -1<<30
	for _, t := range runnable {
		for t >= len(p.prio) {
			p.prio = append(p.prio, unseen)
		}
		pr := p.prio[t]
		if pr == unseen {
			// Random initial priority, distinct per thread.
			pr = p.src.Intn(1 << 16)
			p.prio[t] = pr
		}
		if pr > bestPrio {
			best, bestPrio = t, pr
		}
	}
	return best
}

// Pick implements Scheduler.
func (p *PCT) Pick(runnable []int, step int64) int {
	best := p.best(runnable)
	for i, c := range p.change {
		if c == step && !p.fired[i] {
			// Demote the chosen thread below everything seen so far and
			// re-pick under the new priorities.
			p.fired[i] = true
			p.demote(best)
			return p.best(runnable)
		}
	}
	return best
}

// demote puts tid below every thread seen so far.
func (p *PCT) demote(tid int) {
	for tid >= len(p.prio) {
		p.prio = append(p.prio, unseen)
	}
	p.floor--
	p.prio[tid] = p.floor
}

// Yield implements Yielder: tid is demoted below the floor, as the running
// thread is at a change point. No change point is used up.
func (p *PCT) Yield(tid int) { p.demote(tid) }

// Stay implements Stayer: tid keeps running until the next change point
// that has not fired, provided it is the highest-priority thread of
// runnable and every thread there already has its priority.
func (p *PCT) Stay(tid int, runnable []int, step int64) int64 {
	best, bestPrio := runnable[0], -1<<30
	for _, t := range runnable {
		if t >= len(p.prio) || p.prio[t] == unseen {
			return 0
		}
		if pr := p.prio[t]; pr > bestPrio {
			best, bestPrio = t, pr
		}
	}
	if best != tid {
		return 0
	}
	for i, c := range p.change {
		if c >= step && !p.fired[i] {
			return c - step
		}
	}
	return math.MaxInt64
}

// Advance implements Stayer. A pick before the next change point over
// threads that all have priorities draws nothing and demotes nothing, so
// committing picks that Stay allowed changes no state.
func (p *PCT) Advance(int, int64) {}

// Intn implements Scheduler.
func (p *PCT) Intn(n int) int { return p.src.Intn(n) }

// Name implements Scheduler.
func (p *PCT) Name() string { return "pct" }
