package runner

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"conair/internal/bugs"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/replay"
	"conair/internal/sched"
)

func TestMapOrderingDeterministic(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		got := Map(Engine{Workers: workers}, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := Map(Engine{}, 0, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("len = %d, want 0", len(got))
	}
}

func TestMapCoversEveryIndex(t *testing.T) {
	hit := make([]atomic.Bool, 257)
	Map(Engine{Workers: 8}, len(hit), func(i int) bool { hit[i].Store(true); return true })
	for i := range hit {
		if !hit[i].Load() {
			t.Fatalf("index %d never executed", i)
		}
	}
}

// runSeeds runs mod once per seed through e's RunJob and returns the
// results in seed order, the way the experiment sweeps drive the engine.
func runSeeds(e Engine, mod *mir.Module, seeds []int64) []*interp.Result {
	return Map(e, len(seeds), func(i int) *interp.Result {
		return e.RunJob(mod, SeedConfig(seeds[i], 0), replay.Meta{Seed: seeds[i], Label: mod.Name})
	})
}

// TestParallelMatchesSequentialRuns is the engine-level determinism check:
// the same (module, seed) jobs through a parallel pool and through the
// sequential reference path must produce identical results.
func TestParallelMatchesSequentialRuns(t *testing.T) {
	b := bugs.ByName("ZSNES")
	mod := b.Program(bugs.Config{Light: true, ForceBug: true})
	seeds := []int64{0, 1, 2, 3, 4, 5, 6, 7}

	seq := runSeeds(Engine{Workers: 1}, mod, seeds)
	par := runSeeds(Engine{Workers: 4}, mod, seeds)

	for i := range seeds {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("seed %d: parallel result differs from sequential", seeds[i])
		}
	}
}

// TestAllCompleteMatchesSequentialVerdict: AllComplete walks its seeds in
// order and stops at the first incomplete run, so the verdict and the runs
// it makes are the same at any pool size.
func TestAllCompleteMatchesSequentialVerdict(t *testing.T) {
	b := bugs.ByName("HawkNL")
	forced := b.Program(bugs.Config{Light: true, ForceBug: true})
	verdict := func(workers int) (bool, []int64) {
		hook, infos := collectHook()
		ok := Engine{Workers: workers, RunHook: hook}.AllComplete(forced, 16, 0)
		var seeds []int64
		for i, info := range infos() {
			if info.Seed != int64(i) {
				t.Fatalf("workers=%d: run %d has seed %d, want seeds in order", workers, i, info.Seed)
			}
			if !info.Result.Completed && i != len(infos())-1 {
				t.Fatalf("workers=%d: seed %d failed but the walk went on", workers, i)
			}
			seeds = append(seeds, info.Seed)
		}
		return ok, seeds
	}
	want, wantSeeds := verdict(1)
	got, gotSeeds := verdict(4)
	if got != want {
		t.Errorf("parallel verdict %v, sequential %v", got, want)
	}
	if !reflect.DeepEqual(gotSeeds, wantSeeds) {
		t.Errorf("parallel engine ran seeds %v, sequential %v", gotSeeds, wantSeeds)
	}
	if want || len(wantSeeds) == 16 {
		t.Errorf("verdict %v after %d seeds: the test needs a forced failure before seed 15", want, len(wantSeeds))
	}
}

// panickingModule builds a structurally valid module whose first
// instruction references a global the module does not declare, which
// panics the interpreter (RunModule does not re-verify) — the in-process
// stand-in for any interpreter bug a fuzzer might trip mid-sweep.
func panickingModule() *mir.Module {
	m := mir.MustParse(`
module bad
func main() {
entry:
  %x = const 1
  ret 0
}
`)
	in := &m.Functions[0].Blocks[0].Instrs[0]
	in.Op, in.Aux = mir.OpLoadG, 99
	return m
}

func okModule() *mir.Module {
	return mir.MustParse(`
module ok
func main() {
entry:
  ret 0
}
`)
}

// TestRunJobContainsPanic pins the robustness boundary: a panic inside the
// interpreter comes back as a FailPanic result carrying the panic value
// and stack, not as a process crash.
func TestRunJobContainsPanic(t *testing.T) {
	res := Engine{}.RunJob(panickingModule(),
		interp.Config{Sched: sched.NewRandom(1), MaxSteps: 1000}, replay.Meta{})
	if res.Failure == nil || res.Failure.Kind != mir.FailPanic {
		t.Fatalf("result = %+v, want FailPanic failure", res)
	}
	if !strings.Contains(res.Failure.Msg, "panic:") {
		t.Errorf("failure message lacks panic value: %q", res.Failure.Msg)
	}
}

// TestPanickingJobDoesNotKillBatch injects one panicking job into a
// parallel batch: the pool must survive and every other job must complete
// and land at its own index.
func TestPanickingJobDoesNotKillBatch(t *testing.T) {
	bad, good := panickingModule(), okModule()
	e := Engine{Workers: 4}
	out := Map(e, 8, func(i int) *interp.Result {
		m := good
		if i == 3 {
			m = bad
		}
		return e.RunJob(m, interp.Config{Sched: sched.NewRandom(1), MaxSteps: 1000}, replay.Meta{})
	})
	for i, r := range out {
		if i == 3 {
			if r.Failure == nil || r.Failure.Kind != mir.FailPanic {
				t.Fatalf("job 3 = %+v, want FailPanic", r)
			}
			continue
		}
		if !r.Completed {
			t.Errorf("job %d did not complete after sibling panicked: %+v", i, r)
		}
	}
}

// TestMapRepanicsFromCaller: a panic in a raw pool callback (not routed
// through RunJob) is re-raised on the caller's goroutine after the pool
// drains, never silently swallowed and never fatal to the process.
func TestMapRepanicsFromCaller(t *testing.T) {
	defer func() {
		if p := recover(); p != "boom" {
			t.Fatalf("recovered %v, want the job's panic value", p)
		}
	}()
	Map(Engine{Workers: 4}, 100, func(i int) int {
		if i == 5 {
			panic("boom")
		}
		return i
	})
	t.Fatal("Map returned normally despite a panicking job")
}

// spinModule never ends on its own.
func spinModule() *mir.Module {
	return mir.MustParse(`
module spin
func main() {
entry:
  jmp entry
}
`)
}

// TestJobTimeoutWatchdog: a wedged run (unbounded self-loop) under a
// JobTimeout engine is interrupted cooperatively and reported as a hang
// failure instead of occupying a worker forever — also when the caller
// supplied its own Interrupt flag. The hook sees the hang, but without a
// recording: where the watchdog stopped the run depends on wall-clock
// time, so its schedule could not replay.
func TestJobTimeoutWatchdog(t *testing.T) {
	for _, callerFlag := range []bool{false, true} {
		hook, infos := collectHook()
		e := Engine{JobTimeout: 30 * time.Millisecond, FlightLimit: DefaultFlightLimit, RunHook: hook}
		cfg := interp.Config{Sched: sched.NewRandom(1)}
		if callerFlag {
			cfg.Interrupt = new(atomic.Bool)
		}
		res := e.RunJob(spinModule(), cfg, replay.Meta{Label: "spin"})
		if res.Failure == nil || res.Failure.Kind != mir.FailHang {
			t.Fatalf("caller flag %v: result = %+v, want FailHang from the watchdog", callerFlag, res)
		}
		if !res.Interrupted() {
			t.Errorf("caller flag %v: failure message %q is not the interrupt stop", callerFlag, res.Failure.Msg)
		}
		got := infos()
		if len(got) != 1 || got[0].Result != res {
			t.Fatalf("caller flag %v: hook observed %d runs, want the one watchdog hang", callerFlag, len(got))
		}
		if got[0].Recording != nil || got[0].RecordingTruncated {
			t.Errorf("caller flag %v: watchdog hang reached the hook with a recording (truncated %v)",
				callerFlag, got[0].RecordingTruncated)
		}
	}
}

// TestStopDrainsPool: once the graceful-drain flag is set, no further jobs
// are dispatched and AllComplete reports an incomplete verdict.
func TestStopDrainsPool(t *testing.T) {
	var stop atomic.Bool
	stop.Store(true)
	var executed atomic.Int64
	e := Engine{Workers: 4, Stop: &stop}
	Map(e, 1000, func(i int) int { executed.Add(1); return i })
	if n := executed.Load(); n != 0 {
		t.Errorf("%d jobs dispatched after stop", n)
	}
	hook, infos := collectHook()
	e.RunHook = hook
	if e.AllComplete(okModule(), 16, 0) {
		t.Error("stopped engine reported a complete verdict")
	}
	if n := len(infos()); n != 0 {
		t.Errorf("%d runs executed after stop", n)
	}
}
