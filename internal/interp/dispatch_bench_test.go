package interp_test

import (
	"runtime"
	"testing"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/sanitizer"
	"conair/internal/sched"
)

// Micro-benchmarks for the compiled dispatch loop. Each benchmark executes
// one full run of a fixed-work program per iteration, so ns/op tracks the
// end-to-end per-run cost (compile is cached after the first iteration)
// and the reported steps/op stays constant across changes — regressions
// show up purely in time, not in work.

// dispatchSrc is a tight arithmetic countdown: the loop body is exactly
// the shape (bin, bin, cmp+br) the sweep hot path runs.
const dispatchSrc = `
func main() {
entry:
  %i = const 100000
  jmp loop
loop:
  %i2 = sub %i, 1
  %i = add %i2, 0
  %c = gt %i, 0
  br %c, loop, done
done:
  ret 0
}`

// callHeavySrc pays a call+ret per loop iteration — the frame push/pop and
// code-pointer refetch path.
const callHeavySrc = `
func work(%x) {
entry:
  %y = add %x, 1
  ret %y
}

func main() {
entry:
  %i = const 40000
  jmp loop
loop:
  %j = call work(%i)
  %i = sub %j, 2
  %c = gt %i, 0
  br %c, loop, done
done:
  ret 0
}`

// heapLoadStoreSrc hammers the flat heap: a store+load pair per iteration.
const heapLoadStoreSrc = `
func main() {
entry:
  %i = const 40000
  %p = alloc 4
  jmp loop
loop:
  store %p, %i
  %v = load %p
  %i = sub %v, 1
  %c = gt %i, 0
  br %c, loop, done
done:
  free %p
  ret 0
}`

func benchModule(b *testing.B, src string) *mir.Module {
	b.Helper()
	m, err := mir.Parse(src)
	if err != nil {
		b.Fatalf("parse: %v", err)
	}
	return m
}

func benchRun(b *testing.B, src string, cfg func(seed int64) interp.Config) {
	b.Helper()
	m := benchModule(b, src)
	// Hoist program preparation out of the timed loop: the first RunModule
	// call would otherwise pay the one-time compile inside the measurement,
	// skewing low-N runs.
	interp.Compile(m)
	var steps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := interp.RunModule(m, cfg(1))
		if !r.Completed {
			b.Fatalf("run failed: %+v", r.Failure)
		}
		steps = r.Stats.Steps
	}
	b.ReportMetric(float64(steps), "steps/op")
}

func defaultCfg(seed int64) interp.Config {
	return interp.Config{Sched: sched.NewRandom(seed), MaxSteps: 10_000_000}
}

func BenchmarkDispatch(b *testing.B)      { benchRun(b, dispatchSrc, defaultCfg) }
func BenchmarkCallHeavy(b *testing.B)     { benchRun(b, callHeavySrc, defaultCfg) }
func BenchmarkHeapLoadStore(b *testing.B) { benchRun(b, heapLoadStoreSrc, defaultCfg) }

// superblockSrc is the batching-dominant shape: a long straight-line run
// of thread-local arithmetic per loop iteration, so nearly every
// instruction retires inside one superblock quantum's execLocal batch.
const superblockSrc = `
func main() {
entry:
  %i = const 12000
  jmp loop
loop:
  %a = add %i, 3
  %b = sub %a, 1
  %c = mul %b, 2
  %d = add %c, 5
  %e = sub %d, %c
  %f = add %e, %b
  %i = sub %i, 1
  %more = gt %i, 0
  br %more, loop, done
done:
  ret 0
}`

// BenchmarkSuperblockDispatch measures the superblock fast path; the
// Reference variant tree-walks the original mir.Instr stream one
// pickThread round-trip per instruction:
//
//	go test ./internal/interp -bench SuperblockDispatch
func BenchmarkSuperblockDispatch(b *testing.B) { benchRun(b, superblockSrc, defaultCfg) }
func BenchmarkSuperblockDispatchReference(b *testing.B) {
	benchRunRef(b, superblockSrc)
}

// binOpsSrc runs every binary operator twice per iteration, once with a
// register and once with an immediate right operand, so each of the 32
// specialized arithmetic opcodes retires 3000 times a run.
const binOpsSrc = `
func main() {
entry:
  %i = const 3000
  %k = const 5
  jmp loop
loop:
  %a = add %i, %k
  %a = add %a, 3
  %b = sub %a, %k
  %b = sub %b, 1
  %c = mul %b, %k
  %c = mul %c, 3
  %d = div %c, %k
  %d = div %d, 7
  %e = mod %d, %k
  %e = mod %c, 11
  %f = and %c, %i
  %f = and %f, 255
  %g = or %f, %e
  %g = or %g, 16
  %h = xor %g, %i
  %h = xor %h, 9
  %s = shl %h, %k
  %s = shl %s, 2
  %t = shr %s, %k
  %t = shr %t, 1
  %u = eq %t, %h
  %u = eq %t, 0
  %v = ne %u, %t
  %v = ne %v, 0
  %w = lt %t, %i
  %w = lt %w, 1
  %x = le %w, %v
  %x = le %t, 100
  %y = gt %x, %w
  %y = gt %y, -1
  %z = ge %y, %x
  %z = ge %i, 1
  %i = sub %i, %z
  %more = gt %i, 0
  br %more, loop, done
done:
  ret 0
}`

// BenchmarkBinOps measures execLocal's arithmetic over all 16 operators
// in both register-left shapes: go test ./internal/interp -bench BinOps
func BenchmarkBinOps(b *testing.B) { benchRun(b, binOpsSrc, defaultCfg) }

// workloadLoopSrc is the <p>_hot loop of internal/bugs/workload.go, where
// nearly every instruction of a recovery run retires: a multiply, an add
// and the loop latch (add-immediate, lt-immediate, br), which compiles to
// one fused slot.
const workloadLoopSrc = `
func main() {
entry:
  %acc = const 1
  %i = const 0
  jmp loop
loop:
  %t1 = mul %acc, 3
  %acc = add %t1, %i
  %i = add %i, 1
  %c = lt %i, 20000
  br %c, loop, done
done:
  ret 0
}`

// BenchmarkWorkloadLoop measures the fused latch on the workloads' hot
// loop: go test ./internal/interp -bench WorkloadLoop
func BenchmarkWorkloadLoop(b *testing.B) { benchRun(b, workloadLoopSrc, defaultCfg) }

// The Reference variants run the same programs through RunReference — the
// pre-compilation execution path kept as a test-only oracle — so the
// compiled loop's speedup is measurable from one binary:
//
//	go test ./internal/interp -bench 'Dispatch|CallHeavy|HeapLoadStore'
func benchRunRef(b *testing.B, src string) {
	b.Helper()
	m := benchModule(b, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := interp.RunReference(m, interp.Config{
			Sched: sched.NewRandom(1), MaxSteps: 10_000_000,
		})
		if !r.Completed {
			b.Fatalf("run failed: %+v", r.Failure)
		}
	}
}

func BenchmarkDispatchReference(b *testing.B)      { benchRunRef(b, dispatchSrc) }
func BenchmarkCallHeavyReference(b *testing.B)     { benchRunRef(b, callHeavySrc) }
func BenchmarkHeapLoadStoreReference(b *testing.B) { benchRunRef(b, heapLoadStoreSrc) }

// runMallocs returns the number of heap allocations one run of m with the
// given step budget performs.
func runMallocs(m *mir.Module, maxSteps int64) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	interp.RunModule(m, interp.Config{Sched: sched.NewRandom(1), MaxSteps: maxSteps})
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestDispatchSteadyStateZeroAllocs is the allocation-regression guard for
// the hot loop: the marginal allocation cost of executing more steps must
// be zero. Each run pays a constant setup (VM, threads, result); comparing
// a short and a long run of the same non-terminating program cancels that
// constant, so any per-step allocation — however small — fails the guard.
func TestDispatchSteadyStateZeroAllocs(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"arithmetic", `
func main() {
entry:
  %i = const 1
  jmp loop
loop:
  %j = add %i, 1
  %i = sub %j, 1
  %c = gt %i, 0
  br %c, loop, loop
}`},
		// Calls recycle frames through the freelist, so even the
		// call-heavy loop must reach a zero-allocation steady state.
		{"call-heavy", `
func work(%x) {
entry:
  %y = add %x, 1
  ret %y
}

func main() {
entry:
  %i = const 1
  jmp loop
loop:
  %j = call work(%i)
  %i = sub %j, 1
  %c = gt %i, 0
  br %c, loop, loop
}`},
		// The superblock path: a long straight-line run of eligible
		// instructions per iteration, so almost every step executes
		// inside a batched quantum rather than the dispatch switch.
		{"superblock", `
func main() {
entry:
  %i = const 1
  jmp loop
loop:
  %a = add %i, 3
  %b = sub %a, 1
  %c = mul %b, 2
  %d = add %c, 5
  %e = sub %d, %c
  %i = add %e, 0
  %i = sub %i, %b
  %k = gt %i, -1000000000
  br %k, loop, loop
}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := mir.Parse(tc.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			interp.Compile(m) // warm the program cache outside the measurement

			short := runMallocs(m, 100_000)
			long := runMallocs(m, 400_000)
			// Identical setup on both runs; 300k extra steps must allocate
			// nothing. A little slack absorbs runtime-internal noise (GC
			// bookkeeping in ReadMemStats itself).
			const slack = 8
			if long > short+slack {
				t.Fatalf("dispatch loop allocates in steady state: %d mallocs for 100k steps, %d for 400k (marginal %d)",
					short, long, long-short)
			}
		})
	}
}

// searchRun returns a run of the named program's survival-hardened light
// forced build under the sanitizer search's configuration, PCT seed 0 with
// a race detector attached; each call resets the detector and runs anew.
func searchRun(tb testing.TB, name string) func() *interp.Result {
	m := bugs.ByName(name).Program(bugs.Config{Light: true, ForceBug: true})
	h, err := core.Harden(m, core.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	san := sanitizer.New(h.Module)
	return func() *interp.Result {
		san.Reset(h.Module)
		return interp.RunModule(h.Module, interp.Config{
			Sched: sched.NewSearchPCT(0), MaxSteps: 200_000_000, CollectOutput: true, Sanitizer: san,
		})
	}
}

// TestSearchPCTNoLivelock pins the fairness rule on the sanitizer search's
// slowest runs. Without it, PCT seed 0 keeps the retrying thread of
// LGFrontier and LGCompletion on top: about a million rollbacks in 3.0 M
// steps end at the retry bound while the writer never runs. A rollback
// yields, so the writer runs and both builds complete in well under 1,000
// steps.
func TestSearchPCTNoLivelock(t *testing.T) {
	for _, name := range []string{"LGFrontier", "LGCompletion"} {
		r := searchRun(t, name)()
		if !r.Completed || r.Stats.Steps >= 1000 {
			t.Errorf("%s under PCT seed 0: completed=%v after %d steps and %d rollbacks (%v), want completion in under 1000 steps",
				name, r.Completed, r.Stats.Steps, r.Stats.Rollbacks, r.Failure)
		}
	}
}

// BenchmarkSearchLGFrontier is one sanitizer search run of LGFrontier:
// its survival-hardened light forced build under PCT seed 0 with a race
// detector attached.
func BenchmarkSearchLGFrontier(b *testing.B) {
	run := searchRun(b, "LGFrontier")
	r := run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(r.Stats.Steps), "steps/op")
}
