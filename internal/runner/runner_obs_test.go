package runner

// Telemetry-surface tests: the engine_queue_depth gauge's three drain
// paths (normal completion, Stop, panic) must each return the gauge
// to zero, and the RunHook/flight-recorder feed must observe runs without
// perturbing them.

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"conair/internal/bugs"
	"conair/internal/interp"
	"conair/internal/obs"
	"conair/internal/replay"
)

func queueDepth(reg *obs.Registry) int64 { return reg.Gauge("engine_queue_depth").Value() }

// TestQueueDepthReturnsToZeroAfterCompletion: the plain full-batch path,
// on both the sequential fast path and the pooled path.
func TestQueueDepthReturnsToZeroAfterCompletion(t *testing.T) {
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		e := Engine{Workers: workers, Reg: reg}
		Map(e, 257, func(i int) int { return i })
		if d := queueDepth(reg); d != 0 {
			t.Errorf("workers=%d: queue depth %d after completion, want 0", workers, d)
		}
		if jobs := reg.Counter("engine_jobs_total").Value(); jobs != 257 {
			t.Errorf("workers=%d: jobs_total %d, want 257", workers, jobs)
		}
	}
}

// TestQueueDepthReturnsToZeroAfterStopDrain: the graceful-drain flag skips
// queued jobs; they too must leave the queue-depth gauge.
func TestQueueDepthReturnsToZeroAfterStopDrain(t *testing.T) {
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		var stop atomic.Bool
		e := Engine{Workers: workers, Reg: reg, Stop: &stop}
		Map(e, 10_000, func(i int) int {
			if i == 5 {
				stop.Store(true)
			}
			return i
		})
		if !stop.Load() {
			t.Fatalf("workers=%d: stop flag never set (job 5 did not run?)", workers)
		}
		if d := queueDepth(reg); d != 0 {
			t.Errorf("workers=%d: queue depth %d after stop drain, want 0", workers, d)
		}
	}
}

// TestQueueDepthReturnsToZeroAfterPanicDrain: a panicking job stops
// dispatch and re-raises from the caller; the jobs it skipped must
// still drain from the gauge.
func TestQueueDepthReturnsToZeroAfterPanicDrain(t *testing.T) {
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		e := Engine{Workers: workers, Reg: reg}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("panic did not propagate to the caller")
				}
			}()
			Map(e, 10_000, func(i int) int {
				if i == 7 {
					panic("boom")
				}
				return i
			})
		}()
		if d := queueDepth(reg); d != 0 {
			t.Errorf("workers=%d: queue depth %d after panic drain, want 0", workers, d)
		}
	}
}

// collectHook returns a RunHook appending into a mutex-guarded slice.
func collectHook() (RunHook, func() []RunInfo) {
	var mu sync.Mutex
	var infos []RunInfo
	hook := func(info RunInfo) {
		mu.Lock()
		infos = append(infos, info)
		mu.Unlock()
	}
	return hook, func() []RunInfo {
		mu.Lock()
		defer mu.Unlock()
		return append([]RunInfo(nil), infos...)
	}
}

// TestRunHookObservesEveryJob: every engine job produces exactly one
// RunInfo with its provenance, result, and — under FlightLimit — a
// recording that replays to the same failure for failing runs.
func TestRunHookObservesEveryJob(t *testing.T) {
	b := bugs.ByName("ZSNES")
	mod := b.Program(bugs.Config{Light: true, ForceBug: true})
	seeds := []int64{0, 1, 2, 3, 4, 5, 6, 7}

	hook, infos := collectHook()
	e := Engine{Workers: 4, RunHook: hook, FlightLimit: DefaultFlightLimit}
	results := runSeeds(e, mod, seeds)

	got := infos()
	if len(got) != len(seeds) {
		t.Fatalf("hook observed %d runs, want %d", len(got), len(seeds))
	}
	verified := false
	for _, info := range got {
		if info.Label != mod.Name {
			t.Errorf("info.Label = %q, want %q", info.Label, mod.Name)
		}
		if info.Sched != "random" {
			t.Errorf("info.Sched = %q, want random", info.Sched)
		}
		if info.Result == nil {
			t.Fatal("info.Result is nil")
		}
		if info.Elapsed <= 0 {
			t.Error("info.Elapsed not positive")
		}
		if info.RecordingTruncated {
			continue
		}
		if info.Recording == nil {
			t.Fatal("untruncated flight capture has no recording")
		}
		if got, want := info.Recording.Fingerprint, replay.FingerprintOf(info.Result); got != want {
			t.Errorf("recording fingerprint %+v != result fingerprint %+v", got, want)
		}
		if info.Result.Failure != nil {
			if err := replay.Verify(mod, info.Recording); err != nil {
				t.Errorf("seed %d: flight recording does not verify: %v", info.Seed, err)
			}
			verified = true
		}
	}
	if !verified {
		t.Log("no failing seed in the sweep; flight replay verification not exercised")
	}
	// The hook observed the same pointers the caller got back.
	seen := map[*interp.Result]bool{}
	for _, info := range got {
		seen[info.Result] = true
	}
	for i, r := range results {
		if !seen[r] {
			t.Errorf("result %d never reached the hook", i)
		}
	}
}

// TestFlightRecordingDoesNotPerturbResults: an engine with the flight
// recorder armed returns bit-identical results to a plain one.
func TestFlightRecordingDoesNotPerturbResults(t *testing.T) {
	b := bugs.ByName("MySQL1")
	mod := b.Program(bugs.Config{Light: true, ForceBug: true})
	seeds := []int64{0, 1, 2, 3, 4, 5}

	plain := runSeeds(Engine{Workers: 1}, mod, seeds)
	flight := runSeeds(Engine{Workers: 1, FlightLimit: DefaultFlightLimit, RunHook: func(RunInfo) {}}, mod, seeds)
	for i := range seeds {
		if !reflect.DeepEqual(plain[i], flight[i]) {
			t.Errorf("seed %d: flight-recorded result differs from plain run", seeds[i])
		}
	}
}

// TestFlightRingTruncationReported: a run with far more segments than the
// flight recorder keeps is truncated, and the hook sees the truncation
// instead of a lying artifact.
func TestFlightRingTruncationReported(t *testing.T) {
	b := bugs.ByName("ZSNES")
	mod := b.Program(bugs.Config{Light: true, ForceBug: true})

	hook, infos := collectHook()
	e := Engine{Workers: 1, RunHook: hook, FlightLimit: 2}
	runSeeds(e, mod, []int64{1})

	got := infos()
	if len(got) != 1 {
		t.Fatalf("hook observed %d runs, want 1", len(got))
	}
	if !got[0].RecordingTruncated {
		t.Fatal("2-segment recorder did not truncate on a multi-thread run")
	}
	if got[0].Recording != nil {
		t.Fatal("truncated capture still produced a recording")
	}
}

// TestRunHookObservesPanickedJob: the hook sees the contained FailPanic
// result, not a missing run.
func TestRunHookObservesPanickedJob(t *testing.T) {
	hook, infos := collectHook()
	e := Engine{RunHook: hook, FlightLimit: DefaultFlightLimit}
	res := e.RunJob(panickingModule(), SeedConfig(1, 0), replay.Meta{Label: "bad", Seed: 1})
	if res.Failure == nil || res.Failure.Kind.String() != "panic" {
		t.Fatalf("panicked job result = %+v, want FailPanic", res)
	}
	got := infos()
	if len(got) != 1 || got[0].Result != res {
		t.Fatalf("hook observed %d runs (want 1 matching the returned result)", len(got))
	}
}
