package sanitizer_test

import (
	"testing"

	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/sanitizer"
	"conair/internal/sanitizer/sanitizertest"
)

// benchModule gives the detectors a module with enough globals that the
// flat global shadow path is exercised alongside the heap map path.
func benchModule() *mir.Module {
	m := &mir.Module{Functions: []mir.Function{{Name: "main"}}}
	for i := 0; i < 32; i++ {
		m.Globals = append(m.Globals, mir.Global{Name: "g"})
	}
	return m
}

// driveHooks replays a synthetic three-thread trace: per-thread lock
// regions with a mix of global and heap accesses, all thread-owned (no
// races, no inversions), plus a cross-thread handoff per round. This is
// the detector's steady-state diet — the shape the epoch fast path and
// the release-clock arena are built for.
func driveHooks(s interp.Sanitizer, rounds int) {
	p := mir.Pos{Fn: 0}
	s.ThreadSpawn(-1, 0)
	s.ThreadSpawn(0, 1)
	s.ThreadSpawn(0, 2)
	for r := 0; r < rounds; r++ {
		for tid := 1; tid <= 2; tid++ {
			lk := interp.GlobalBase + mir.Word(30+tid)
			s.LockAcquire(tid, lk, false, p)
			for k := 0; k < 8; k++ {
				gaddr := interp.GlobalBase + mir.Word((tid-1)*8+k)
				s.Access(tid, gaddr, k%3 == 0, p)
				haddr := mir.Word(50000 + (tid-1)*16 + k)
				s.Access(tid, haddr, k%4 == 0, p)
			}
			s.LockRelease(tid, lk)
		}
	}
	s.ThreadJoin(0, 1)
	s.ThreadJoin(0, 2)
}

// BenchmarkSanitizerAccess drives the identical hook trace through the
// epoch Sanitizer and the reference detector. The epoch leg reuses one
// instance via Reset, which is how SanitizeSearch runs it.
func BenchmarkSanitizerAccess(b *testing.B) {
	mod := benchModule()
	const rounds = 100
	b.Run("epoch", func(b *testing.B) {
		s := sanitizer.New(mod)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Reset(mod)
			driveHooks(s, rounds)
			s.Finish()
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := sanitizertest.NewReference(mod)
			driveHooks(s, rounds)
			s.Finish()
		}
	})
}

// TestAccessFastPathZeroAllocs is the steady-state allocation guard: once
// a sanitizer has seen a program shape, Reset plus a full replay of the
// trace must not allocate at all — clocks, shadow cells, release-clock
// arena regions, edges and report state are all recycled in place.
func TestAccessFastPathZeroAllocs(t *testing.T) {
	mod := benchModule()
	s := sanitizer.New(mod)
	run := func() {
		s.Reset(mod)
		driveHooks(s, 20)
		s.Finish()
	}
	run() // warm: first pass sizes every structure
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("steady-state Reset+replay allocated %.1f times per run, want 0", avg)
	}
	if s.FastPathHits() == 0 {
		t.Fatal("owned-cell trace produced no fast-path hits")
	}
	if got := len(s.Reports()); got != 0 {
		t.Fatalf("race-free trace produced %d reports", got)
	}
}
