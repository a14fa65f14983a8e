package interp

import (
	"testing"

	"conair/internal/mir"
	"conair/internal/obs"
	"conair/internal/sched"
)

// spinSrc is a register-only infinite loop: the steady-state dispatch
// path with no memory growth, so any per-step allocation is the
// interpreter's own fault.
const spinSrc = `
func main() {
entry:
  %x = const 0
  jmp loop
loop:
  %x = add %x, 1
  jmp loop
}`

func newSpinVM(tb testing.TB) *VM {
	tb.Helper()
	m, err := mir.Parse(spinSrc)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	return New(m, Config{Sched: sched.NewRandom(1), MaxSteps: 1 << 40})
}

// TestDisabledTracingZeroAllocs guards the nil-sink fast path: with no
// tracer attached, steady-state dispatch must not allocate at all.
func TestDisabledTracingZeroAllocs(t *testing.T) {
	vm := newSpinVM(t)
	for i := 0; i < 1000; i++ { // reach steady state first
		if !vm.StepOnce() {
			t.Fatal("spin loop ended early")
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			vm.StepOnce()
		}
	})
	if allocs != 0 {
		t.Errorf("dispatch with tracing disabled allocates %.1f allocs per 100 steps, want 0", allocs)
	}
}

// TestRunMetricsCountEachRunOnce: a finished run adds exactly one run and
// its step count to the installed registry, however often its Result is
// built (Finish may be called again on a StepOnce-driven VM). These are
// the counters conair-bench's -json perf block reports.
func TestRunMetricsCountEachRunOnce(t *testing.T) {
	reg := obs.NewRegistry()
	defer SetMetricsRegistry(metricsRegistry.Load())
	SetMetricsRegistry(reg)
	m, err := mir.Parse(`
func main() {
entry:
  %a = const 1
  ret %a
}`)
	if err != nil {
		t.Fatal(err)
	}
	vm := New(m, Config{Sched: sched.NewRandom(3)})
	r := vm.Run()
	if !r.Completed {
		t.Fatalf("run failed: %+v", r.Failure)
	}
	vm.Finish()
	if runs := reg.Counter("interp_runs_total").Value(); runs != 1 {
		t.Errorf("runs = %d, want 1", runs)
	}
	if steps := reg.Counter("interp_steps_total").Value(); steps != r.Stats.Steps {
		t.Errorf("steps = %d, want %d", steps, r.Stats.Steps)
	}
}

// BenchmarkDispatchNoSink measures the per-step cost of the dispatch loop
// with tracing disabled — the configuration every experiment runs in. It
// reports allocations; the acceptance bar is 0 allocs/op and, against the
// pre-observability baseline, <2% regression.
func BenchmarkDispatchNoSink(b *testing.B) {
	vm := newSpinVM(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.StepOnce()
	}
}

// BenchmarkDispatchWithSink is the same loop with a ring tracer attached,
// to quantify the cost of tracing when it is switched on.
func BenchmarkDispatchWithSink(b *testing.B) {
	m, err := mir.Parse(spinSrc)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Sched: sched.NewRandom(1), MaxSteps: 1 << 40}
	cfg.Sink = obs.NewTracer(1 << 16)
	vm := New(m, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.StepOnce()
	}
}
