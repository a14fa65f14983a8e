package sched

import (
	"math"
	"testing"
)

func TestPCTDeterministicPerSeed(t *testing.T) {
	a := NewPCT(3, 3, 1000)
	b := NewPCT(3, 3, 1000)
	run := []int{1, 2, 3}
	for i := int64(0); i < 200; i++ {
		if a.Pick(run, i) != b.Pick(run, i) {
			t.Fatal("same seed must give the same schedule")
		}
	}
	if a.Name() != "pct" {
		t.Errorf("name = %q", a.Name())
	}
}

func TestPCTPicksFromRunnable(t *testing.T) {
	s := NewPCT(1, 4, 500)
	for i := int64(0); i < 500; i++ {
		run := []int{int(i % 3), 3 + int(i%2)}
		p := s.Pick(run, i)
		ok := false
		for _, r := range run {
			if r == p {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("step %d: picked %d not in %v", i, p, run)
		}
	}
}

func TestPCTPrioritiesAreStableBetweenChangePoints(t *testing.T) {
	// With d=1 there are no change points: the highest-priority runnable
	// thread runs every step, so picks over a fixed runnable set are
	// constant.
	s := NewPCT(7, 1, 1000)
	run := []int{4, 5, 6}
	first := s.Pick(run, 0)
	for i := int64(1); i < 100; i++ {
		if got := s.Pick(run, i); got != first {
			t.Fatalf("step %d: pick changed from %d to %d without a change point", i, first, got)
		}
	}
}

func TestPCTDemotionChangesChoice(t *testing.T) {
	// With many change points over a short horizon, demotions must cause
	// at least one switch among always-runnable threads.
	s := NewPCT(11, 8, 64)
	run := []int{1, 2}
	seen := map[int]bool{}
	for i := int64(0); i < 64; i++ {
		seen[s.Pick(run, i)] = true
	}
	if len(seen) < 2 {
		t.Error("expected at least one priority demotion to switch threads")
	}
}

// TestPCTYieldDemotes checks the fairness rule: a thread that yields
// drops below every other thread, as at a change point, without using a
// change point up, and yields rotate the top among spinning threads.
func TestPCTYieldDemotes(t *testing.T) {
	s := NewPCT(7, 1, 1000) // no change points: only yields move the top
	run := []int{4, 5, 6}
	seen := map[int]bool{}
	for i := int64(0); i < 3; i++ {
		top := s.Pick(run, i)
		if seen[top] {
			t.Fatalf("step %d: %d is on top again before every thread had its turn", i, top)
		}
		seen[top] = true
		s.Yield(top)
		if got := s.Pick(run, i); got == top {
			t.Fatalf("step %d: %d still on top after yielding", i, top)
		}
	}
	if k := s.Stay(s.Pick(run, 3), run, 4); k != math.MaxInt64 {
		t.Fatalf("Stay after yields = %d, want the decision to hold for good", k)
	}

	// A thread that yields before PCT has seen it ranks below the floor.
	u := NewPCT(7, 1, 1000)
	u.Yield(9)
	if got := u.Pick([]int{2, 9}, 0); got != 2 {
		t.Fatalf("picked %d, want 2 over the yielded 9", got)
	}
}

// TestFlightRecorderForwardsYield checks that a flight recorder around
// PCT passes yields through, so a recorded run keeps the plain schedule,
// and that one around a scheduler without priorities ignores them.
func TestFlightRecorderForwardsYield(t *testing.T) {
	plain, inner := NewSearchPCT(3), NewSearchPCT(3)
	f := NewFlightRecorder(inner, 0)
	run := []int{0, 1, 2}
	for i := int64(0); i < 200; i++ {
		want, got := plain.Pick(run, i), f.Pick(run, i)
		if want != got {
			t.Fatalf("step %d: flight picked %d, plain PCT %d", i, got, want)
		}
		if i%5 == 0 {
			plain.Yield(want)
			f.Yield(got)
		}
	}
	NewFlightRecorder(NewRandom(1), 0).Yield(0) // a no-op, and no panic
}
