package sched

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// mapPCT is PCT as it was before priorities and change points moved to
// slices: maps keyed by thread id and by step, with math/rand as the
// source. It is the oracle for the slice representation.
type mapPCT struct {
	rng    *rand.Rand
	prio   map[int]int
	change map[int64]bool
	floor  int
}

func newMapPCT(seed int64, d int, maxSteps int64) *mapPCT {
	p := &mapPCT{rng: rand.New(rand.NewSource(seed)), prio: map[int]int{}, change: map[int64]bool{}}
	if maxSteps < 1 {
		maxSteps = 1
	}
	for i := 0; i < d-1; i++ {
		p.change[p.rng.Int63n(maxSteps)] = true
	}
	return p
}

func (p *mapPCT) Intn(n int) int { return p.rng.Intn(n) }
func (p *mapPCT) Name() string   { return "map-pct" }

func (p *mapPCT) Pick(runnable []int, step int64) int {
	best, bestPrio := runnable[0], -1<<30
	for _, t := range runnable {
		pr, ok := p.prio[t]
		if !ok {
			pr = p.rng.Intn(1 << 16)
			p.prio[t] = pr
		}
		if pr > bestPrio {
			best, bestPrio = t, pr
		}
	}
	if p.change[step] {
		p.floor--
		p.prio[best] = p.floor
		delete(p.change, step)
		return p.Pick(runnable, step)
	}
	return best
}

// phase is a stretch of picks over one runnable set at consecutive steps,
// entered after gap steps nobody picked at (a sleep fast-forward).
type phase struct {
	run []int
	n   int
	gap int64
}

// randomPhases draws a pick script over thread ids 0..5.
func randomPhases(rng *rand.Rand, count int) []phase {
	out := make([]phase, count)
	for i := range out {
		var run []int
		for tid := 0; tid < 6; tid++ {
			if rng.Intn(2) == 0 {
				run = append(run, tid)
			}
		}
		if len(run) == 0 {
			run = []int{rng.Intn(6)}
		}
		out[i] = phase{run: run, n: 1 + rng.Intn(40)}
		if rng.Intn(4) == 0 {
			out[i].gap = int64(rng.Intn(20))
		}
	}
	return out
}

// stayScheduler is a Scheduler that is also a Stayer.
type stayScheduler interface {
	Scheduler
	Stayer
}

// drivePicks runs the script with one Pick per step.
func drivePicks(s Scheduler, phases []phase) []int {
	var out []int
	step := int64(0)
	for _, ph := range phases {
		step += ph.gap
		for range ph.n {
			out = append(out, s.Pick(ph.run, step))
			step++
		}
	}
	return out
}

// driveStays runs the script the way the interpreter does: after each
// real pick it asks Stay once, takes the picks the stay allows without
// calling Pick, and commits them with one Advance before the next real
// pick and at every change of the runnable set. Every Stay must leave the
// scheduler as it found it.
func driveStays(t *testing.T, s stayScheduler, clone func() any, phases []phase) []int {
	t.Helper()
	var out []int
	step := int64(0)
	for _, ph := range phases {
		step += ph.gap
		var tid int
		var left, owed int64
		for range ph.n {
			if left > 0 {
				out = append(out, tid)
				left--
				owed++
				step++
				continue
			}
			if owed > 0 {
				s.Advance(tid, owed)
				owed = 0
			}
			tid = s.Pick(ph.run, step)
			out = append(out, tid)
			before := clone()
			left = s.Stay(tid, ph.run, step+1)
			if !reflect.DeepEqual(before, clone()) {
				t.Fatalf("Stay(%d, %v, %d) changed the scheduler", tid, ph.run, step+1)
			}
			if left < 0 {
				t.Fatalf("Stay returned %d", left)
			}
			step++
		}
		if owed > 0 {
			s.Advance(tid, owed)
		}
	}
	return out
}

func clonePCT(p *PCT) any {
	c := *p
	c.prio = slices.Clone(p.prio)
	c.change = slices.Clone(p.change)
	c.fired = slices.Clone(p.fired)
	return c
}

// TestPCTSliceMatchesMaps drives the slice-backed PCT and the map-backed
// oracle through the same random scripts, gaps included: every decision
// and every later Intn must agree.
func TestPCTSliceMatchesMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := int64(0); seed < 64; seed++ {
		d, maxSteps := 1+int(seed%7), int64(1+rng.Intn(300))
		phases := randomPhases(rng, 30)
		got, want := NewPCT(seed, d, maxSteps), newMapPCT(seed, d, maxSteps)
		if g, w := drivePicks(got, phases), drivePicks(want, phases); !slices.Equal(g, w) {
			t.Fatalf("seed %d d %d maxSteps %d: picks diverge\nslices: %v\nmaps:   %v", seed, d, maxSteps, g, w)
		}
		if g, w := got.Intn(1000), want.Intn(1000); g != w {
			t.Fatalf("seed %d: Intn after the script %d, maps %d", seed, g, w)
		}
	}
}

// TestPCTDuplicateChangePointsCollapse pins that change points drawn
// twice are kept once and demote once, as the map kept them.
func TestPCTDuplicateChangePointsCollapse(t *testing.T) {
	const d, maxSteps = 12, 4 // 11 draws from 4 steps: duplicates certain
	for seed := int64(0); seed < 16; seed++ {
		p, m := NewPCT(seed, d, maxSteps), newMapPCT(seed, d, maxSteps)
		if len(p.change) != len(m.change) || len(p.change) > maxSteps {
			t.Fatalf("seed %d: %d change points %v, map has %d", seed, len(p.change), p.change, len(m.change))
		}
		for i := 1; i < len(p.change); i++ {
			if p.change[i] == p.change[i-1] {
				t.Fatalf("seed %d: duplicate change point in %v", seed, p.change)
			}
		}
		run := []int{0, 1, 2}
		for step := int64(0); step < 2*maxSteps; step++ {
			if g, w := p.Pick(run, step), m.Pick(run, step); g != w {
				t.Fatalf("seed %d step %d: pick %d, map %d", seed, step, g, w)
			}
		}
		if p.floor != -len(p.change) {
			t.Fatalf("seed %d: %d demotions for %d distinct change points", seed, -p.floor, len(p.change))
		}
	}
}

// TestPCTSkippedChangePointNeverFires pins the fast-forward rule: a change
// point no Pick lands on exactly, because virtual time jumped over it,
// stays unfired for good, as it did with the map, and Stay looks past it.
func TestPCTSkippedChangePointNeverFires(t *testing.T) {
	p := NewPCT(5, 2, 1000)
	m := newMapPCT(5, 2, 1000)
	cp := p.change[0]
	if cp < 2 {
		t.Fatalf("change point %d too early for the script", cp)
	}
	run := []int{0, 1}
	first := p.Pick(run, 0)
	m.Pick(run, 0)
	if got := p.Stay(first, run, 1); got != cp-1 {
		t.Fatalf("Stay before the change point = %d, want %d", got, cp-1)
	}
	// Jump from step cp-1 straight to cp+1, as a sleep fast-forward does.
	for _, step := range []int64{cp - 1, cp + 1, cp + 2, cp + 50} {
		g, w := p.Pick(run, step), m.Pick(run, step)
		if g != w || g != first {
			t.Fatalf("step %d: pick %d, map %d, want %d: the skipped change point fired", step, g, w, first)
		}
	}
	if p.fired[0] || p.floor != 0 || !m.change[cp] {
		t.Fatalf("skipped change point fired: floor %d fired %v", p.floor, p.fired)
	}
	if got := p.Stay(first, run, cp+51); got != math.MaxInt64 {
		t.Fatalf("Stay past every change point = %d, want MaxInt64", got)
	}
}

// TestPCTStayMatchesPick drives PCT with one Pick per step and, on a twin,
// with Stay/Advance: decisions and final state must be identical.
func TestPCTStayMatchesPick(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for seed := int64(0); seed < 32; seed++ {
		phases := randomPhases(rng, 40)
		maxSteps := int64(1 + rng.Intn(400))
		a, b := NewPCT(seed, 3, maxSteps), NewPCT(seed, 3, maxSteps)
		want := drivePicks(a, phases)
		got := driveStays(t, b, func() any { return clonePCT(b) }, phases)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: stayed picks diverge\nstay: %v\npick: %v", seed, got, want)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: state differs after the script", seed)
		}
	}
}

func cloneReplay(s *SegmentReplay) any { return *s }

// editedStreams returns a recorded stream and ddmin-style edits of it:
// segments dropped, a truncated prefix (tail picks), threads swapped to
// ones that are not always runnable (divergence), and unmerged and empty
// segments.
func editedStreams(segs []Segment) map[string][]Segment {
	out := map[string][]Segment{"recorded": segs}
	var drop, swap, split []Segment
	for i, s := range segs {
		if i%3 != 1 {
			drop = append(drop, s)
		}
		if i%4 == 2 {
			s.TID = (s.TID + 1) % 6
		}
		swap = append(swap, s)
		if s.N > 1 {
			split = append(split, Segment{TID: s.TID, N: s.N / 2}, Segment{TID: s.TID}, Segment{TID: s.TID, N: s.N - s.N/2})
		} else {
			split = append(split, s)
		}
	}
	out["dropped"] = drop
	out["swapped"] = swap
	out["split"] = split
	out["truncated"] = segs[:len(segs)/2]
	out["empty"] = nil
	return out
}

// TestSegmentReplayStayMatchesPick replays recorded and edited streams
// with one Pick per step and with Stay/Advance, comparing every decision,
// Diverged, TailPicks, Exhausted and the final state.
func TestSegmentReplayStayMatchesPick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var diverged, tail int64
	for seed := int64(0); seed < 16; seed++ {
		phases := randomPhases(rng, 40)
		rec := NewFlightRecorder(NewRandom(seed), math.MaxInt)
		drivePicks(rec, phases)
		for name, segs := range editedStreams(rec.Segments()) {
			a, b := NewSegmentReplay(segs, nil), NewSegmentReplay(segs, nil)
			want := drivePicks(a, phases)
			got := driveStays(t, b, func() any { return cloneReplay(b) }, phases)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d %s: stayed picks diverge\nstay: %v\npick: %v", seed, name, got, want)
			}
			if a.Diverged() != b.Diverged() || a.TailPicks() != b.TailPicks() || a.Exhausted() != b.Exhausted() {
				t.Fatalf("seed %d %s: diverged/tail/exhausted %d/%d/%v with stays, %d/%d/%v with picks", seed, name,
					b.Diverged(), b.TailPicks(), b.Exhausted(), a.Diverged(), a.TailPicks(), a.Exhausted())
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d %s: state differs after the script", seed, name)
			}
			diverged += a.Diverged()
			tail += a.TailPicks()
		}
	}
	if diverged == 0 || tail == 0 {
		t.Fatalf("edits exercised %d divergences and %d tail picks; want both", diverged, tail)
	}
}

// TestFlightRecorderStay checks the flight recorder's delegation: around a
// PCT it stays as PCT does and records the committed picks as one run;
// around a scheduler that is not a Stayer it never stays.
func TestFlightRecorderStay(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for seed := int64(0); seed < 16; seed++ {
		phases := randomPhases(rng, 40)
		a := NewFlightRecorder(NewPCT(seed, 3, 200), math.MaxInt)
		b := NewFlightRecorder(NewPCT(seed, 3, 200), math.MaxInt)
		want := drivePicks(a, phases)
		got := driveStays(t, b, func() any {
			return []any{b.Segments(), b.Picks(), clonePCT(b.Inner().(*PCT))}
		}, phases)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: stayed picks diverge", seed)
		}
		if !reflect.DeepEqual(a.Segments(), b.Segments()) || a.Picks() != b.Picks() {
			t.Fatalf("seed %d: flight segments differ\nstay: %v\npick: %v", seed, b.Segments(), a.Segments())
		}
		if !reflect.DeepEqual(a.Inner(), b.Inner()) {
			t.Fatalf("seed %d: inner PCT state differs", seed)
		}
	}
	f := NewFlightRecorder(NewRandom(1), 8)
	if got := f.Stay(f.Pick([]int{0}, 0), []int{0}, 1); got != 0 {
		t.Fatalf("flight(random) Stay = %d, want 0", got)
	}
}
