package sched

// PCT is a randomized priority scheduler in the style of probabilistic
// concurrency testing (Burckhardt et al.): each thread gets a random
// priority when first seen, the runnable thread with the highest priority
// always runs, and at d-1 random step counts the running thread's priority
// is demoted below everything else. Small d values find rare interleavings
// (like the unserializable interleavings behind atomicity violations) with
// provable probability — a useful complement to the forced-sleep
// methodology when hunting for bugs the test author has not located yet.
type PCT struct {
	src    source
	prio   map[int]int
	next   int
	change map[int64]bool
	floor  int
}

// NewPCT returns a PCT scheduler with depth d (the number of priority
// change points) spread over an expected run of maxSteps steps.
func NewPCT(seed int64, d int, maxSteps int64) *PCT {
	p := &PCT{prio: map[int]int{}, change: map[int64]bool{}}
	p.src.seed(seed)
	if maxSteps < 1 {
		maxSteps = 1
	}
	for i := 0; i < d-1; i++ {
		p.change[p.src.Int63n(maxSteps)] = true
	}
	return p
}

// Pick implements Scheduler.
func (p *PCT) Pick(runnable []int, step int64) int {
	best, bestPrio := runnable[0], -1<<30
	for _, t := range runnable {
		pr, ok := p.prio[t]
		if !ok {
			// Random initial priority, distinct per thread.
			pr = p.src.Intn(1 << 16)
			p.prio[t] = pr
		}
		if pr > bestPrio {
			best, bestPrio = t, pr
		}
	}
	if p.change[step] {
		// Demote the chosen thread below everything seen so far.
		p.floor--
		p.prio[best] = p.floor
		// Re-pick under the new priorities.
		delete(p.change, step)
		return p.Pick(runnable, step)
	}
	return best
}

// Intn implements Scheduler.
func (p *PCT) Intn(n int) int { return p.src.Intn(n) }

// Name implements Scheduler.
func (p *PCT) Name() string { return "pct" }
