package sched

import (
	"math/rand"
	"testing"
)

// TestRandomIntnMatchesMathRand pins Random.Intn's fast path to
// math/rand.(*Rand).Intn: same values AND the same number of draws consumed
// from the source, across power-of-two and rejection-loop bounds. The whole
// determinism story (golden experiment fingerprints) rides on this.
func TestRandomIntnMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 2, 7, 42, 1 << 40} {
		got := NewRandom(seed)
		want := rand.New(rand.NewSource(seed))
		// Interleave bounds so a draw-count mismatch desynchronizes the
		// streams and shows up as a value mismatch on a later bound.
		// Bounds past 2³¹−1 take math/rand's Int63n path on the same source.
		bounds := []int{1, 2, 3, 1, 5, 7, 8, 100, 1, 6, 1 << 20, 2, 9, 1<<31 - 1, 1 << 40, 3<<40 + 7}
		for round := 0; round < 200; round++ {
			for _, n := range bounds {
				g, w := got.Intn(n), want.Intn(n)
				if g != w {
					t.Fatalf("seed %d round %d Intn(%d) = %d, math/rand = %d",
						seed, round, n, g, w)
				}
			}
		}
	}
}

// TestRandomPickMatchesMathRand pins the Pick stream (the per-instruction
// scheduling decisions) the same way.
func TestRandomPickMatchesMathRand(t *testing.T) {
	got := NewRandom(3)
	want := rand.New(rand.NewSource(3))
	run := [][]int{{0}, {0, 1}, {0, 1, 2}, {0, 2, 5, 9}, {1, 2, 3, 4, 5, 6, 7}}
	for i := int64(0); i < 1000; i++ {
		r := run[i%int64(len(run))]
		g, w := got.Pick(r, i), r[want.Intn(len(r))]
		if g != w {
			t.Fatalf("step %d Pick(%v) = %d, math/rand picks %d", i, r, g, w)
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a, b := NewRandom(5), NewRandom(5)
	run := []int{3, 7, 9}
	for i := int64(0); i < 100; i++ {
		if a.Pick(run, i) != b.Pick(run, i) {
			t.Fatal("same seed must give same picks")
		}
	}
	if a.Name() != "random" {
		t.Errorf("name = %q", a.Name())
	}
}

func TestRandomPicksFromRunnable(t *testing.T) {
	s := NewRandom(1)
	run := []int{4, 8}
	seen := map[int]bool{}
	for i := int64(0); i < 200; i++ {
		p := s.Pick(run, i)
		if p != 4 && p != 8 {
			t.Fatalf("picked %d not in runnable", p)
		}
		seen[p] = true
	}
	if !seen[4] || !seen[8] {
		t.Error("random scheduler never picked one of the threads")
	}
}

func TestRoundRobinRotates(t *testing.T) {
	s := NewRoundRobin(1, 0)
	run := []int{1, 2}
	got := []int{
		s.Pick(run, 0), s.Pick(run, 1), s.Pick(run, 2), s.Pick(run, 3),
	}
	want := []int{1, 2, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation = %v, want %v", got, want)
		}
	}
}

func TestRoundRobinQuantum(t *testing.T) {
	s := NewRoundRobin(3, 0)
	run := []int{5, 6}
	for i := int64(0); i < 3; i++ {
		if p := s.Pick(run, i); p != 5 {
			t.Fatalf("step %d: got %d, want 5", i, p)
		}
	}
	if p := s.Pick(run, 3); p != 6 {
		t.Fatalf("after quantum: got %d, want 6", p)
	}
}

func TestScriptedPrefix(t *testing.T) {
	s := NewScripted([]int{2, 2, 1}, 0)
	run := []int{1, 2}
	if p := s.Pick(run, 0); p != 2 {
		t.Fatalf("scripted pick 0 = %d", p)
	}
	if p := s.Pick(run, 1); p != 2 {
		t.Fatalf("scripted pick 1 = %d", p)
	}
	if p := s.Pick(run, 2); p != 1 {
		t.Fatalf("scripted pick 2 = %d", p)
	}
	// Script exhausted: falls back to random but stays within runnable.
	for i := int64(3); i < 50; i++ {
		p := s.Pick(run, i)
		if p != 1 && p != 2 {
			t.Fatalf("fallback picked %d", p)
		}
	}
}

func TestScriptedSkipsBlockedWithoutConsuming(t *testing.T) {
	s := NewScripted([]int{3}, 0)
	// Thread 3 not runnable yet: entry must not be consumed.
	if p := s.Pick([]int{1}, 0); p != 1 {
		t.Fatalf("pick = %d", p)
	}
	if p := s.Pick([]int{1, 3}, 1); p != 3 {
		t.Fatalf("scripted entry should still apply, got %d", p)
	}
}

func TestIntnInRange(t *testing.T) {
	for _, s := range []Scheduler{NewRandom(2), NewRoundRobin(1, 2), NewScripted(nil, 2)} {
		for i := 0; i < 100; i++ {
			if v := s.Intn(7); v < 0 || v >= 7 {
				t.Fatalf("%s.Intn out of range: %d", s.Name(), v)
			}
		}
	}
}
