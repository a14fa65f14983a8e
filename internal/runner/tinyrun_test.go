package runner

import (
	"runtime"
	"testing"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/mir"
	"conair/internal/replay"
)

// tinyModule is LGFrontier's survival-hardened light forced build: a
// forced-failure run of about 80 steps, where per-run set-up (scheduler
// seeding, VM and frame arena) rather than execution sets the cost.
func tinyModule(tb testing.TB) *mir.Module {
	tb.Helper()
	m := bugs.ByName("LGFrontier").Program(bugs.Config{Light: true, ForceBug: true})
	h, err := core.Harden(m, core.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return h.Module
}

func runTiny(tb testing.TB, e Engine, mod *mir.Module, seed int64) {
	if r := e.RunJob(mod, SeedConfig(seed, 1_000_000), replay.Meta{Seed: seed}); !r.Completed {
		tb.Fatalf("seed %d: tiny run failed: %v", seed, r.Failure)
	}
}

// TestRunJobTinyAllocs guards the per-run allocation cost of a tiny run:
// the scheduler is one allocation, the first frame-arena chunk is sized
// to the program's frames, not a fixed 8 KB chunk, and the result carries
// no per-site checkpoint map. The run makes 47 allocations, 49 under the
// race detector.
func TestRunJobTinyAllocs(t *testing.T) {
	const maxAllocs, maxBytes = 49, 10 << 10
	mod := tinyModule(t)
	e := Engine{Workers: 1}
	runTiny(t, e, mod, 7) // compile once, outside the measurement
	allocs := testing.AllocsPerRun(50, func() { runTiny(t, e, mod, 7) })

	const n = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		runTiny(t, e, mod, 7)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("tiny run: %.0f allocs, %d bytes", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Fatalf("tiny run allocates %.0f times and %d bytes per run; guard is %d allocs, %d bytes",
			allocs, bytes, maxAllocs, maxBytes)
	}
}

func BenchmarkRunJobTiny(b *testing.B) {
	mod := tinyModule(b)
	e := Engine{Workers: 1}
	runTiny(b, e, mod, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTiny(b, e, mod, int64(i%1000))
	}
}
