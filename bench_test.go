package conair

// Benchmark harness: one benchmark family per table/figure of the paper's
// evaluation. The deterministic (step-count) versions of these numbers are
// printed by cmd/conair-bench; the benchmarks here measure the same runs
// in wall-clock time and report the headline counters via ReportMetric.
//
//	go test -bench=. -benchmem
//
// Families:
//
//	BenchmarkTable3_*   run-time overhead: original vs fix vs survival
//	BenchmarkTable5_*   dynamic reexecution points (reported as metric)
//	BenchmarkTable7_*   recovery vs whole-program restart
//	BenchmarkFigure2_*  the four atomicity-violation micro-patterns
//	BenchmarkFigure4_*  reexecution-region design-space ablation
//	BenchmarkAnalysis_* static analysis time (§6.4), intra vs full
//	BenchmarkMicro_*    interpreter and pipeline microbenchmarks

import (
	"runtime"
	"sync"
	"testing"

	"conair/internal/baseline"
	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/runner"
	"conair/internal/sched"
)

// Program cache: building and hardening the big apps costs tens of
// milliseconds, so benchmarks share prepared modules.
type prepared struct {
	clean      *mir.Module // full workload, failure-free
	cleanFix   *mir.Module // fix-mode hardened clean
	cleanSurv  *mir.Module // survival-mode hardened clean
	forced     *mir.Module // light workload, forced failure
	forcedFix  *mir.Module // fix-mode hardened forced
	forcedSurv *mir.Module
}

var (
	prepMu    sync.Mutex
	prepCache = map[string]*prepared{}
)

func prep(b *testing.B, name string) *prepared {
	b.Helper()
	prepMu.Lock()
	defer prepMu.Unlock()
	if p, ok := prepCache[name]; ok {
		return p
	}
	bug := bugs.ByName(name)
	if bug == nil {
		b.Fatalf("unknown bug %s", name)
	}
	p := &prepared{
		clean:  bug.Program(bugs.Config{}),
		forced: bug.Program(bugs.Config{Light: true, ForceBug: true}),
	}
	harden := func(m *mir.Module, fix bool) *mir.Module {
		opts := core.DefaultOptions()
		if fix {
			pos, err := bug.FixSite(m)
			if err != nil {
				b.Fatal(err)
			}
			opts = core.FixOptions(pos)
		}
		h, err := core.Harden(m, opts)
		if err != nil {
			b.Fatal(err)
		}
		return h.Module
	}
	p.cleanFix = harden(p.clean, true)
	p.cleanSurv = harden(p.clean, false)
	p.forcedFix = harden(p.forced, true)
	p.forcedSurv = harden(p.forced, false)
	prepCache[name] = p
	return p
}

func runOnce(b *testing.B, m *mir.Module, seed int64) *interp.Result {
	b.Helper()
	r := interp.RunModule(m, interp.Config{
		Sched: sched.NewRandom(seed), MaxSteps: 500_000_000,
	})
	if !r.Completed {
		b.Fatalf("run failed: %v", r.Failure)
	}
	return r
}

var benchApps = []string{
	"FFT", "HawkNL", "HTTrack", "MozillaXP", "MozillaJS",
	"MySQL1", "MySQL2", "SQLite", "Transmission", "ZSNES",
}

// --- Table 3: run-time overhead -----------------------------------------

func BenchmarkTable3_Overhead(b *testing.B) {
	for _, app := range benchApps {
		p := prep(b, app)
		variants := []struct {
			name string
			m    *mir.Module
		}{
			{"Original", p.clean},
			{"FixMode", p.cleanFix},
			{"Survival", p.cleanSurv},
		}
		for _, v := range variants {
			b.Run(app+"/"+v.name, func(b *testing.B) {
				var steps int64
				for i := 0; i < b.N; i++ {
					steps = runOnce(b, v.m, 1).Stats.Steps
				}
				b.ReportMetric(float64(steps), "steps/run")
			})
		}
	}
}

// --- Table 5: dynamic reexecution points ---------------------------------

func BenchmarkTable5_DynamicReexecPoints(b *testing.B) {
	for _, app := range benchApps {
		p := prep(b, app)
		b.Run(app, func(b *testing.B) {
			var cps int64
			for i := 0; i < b.N; i++ {
				cps = runOnce(b, p.cleanSurv, 1).Stats.Checkpoints
			}
			b.ReportMetric(float64(cps), "checkpoints/run")
		})
	}
}

// --- Table 7: recovery vs restart ----------------------------------------

func BenchmarkTable7_Recovery(b *testing.B) {
	for _, app := range benchApps {
		p := prep(b, app)
		b.Run(app, func(b *testing.B) {
			var retries, recSteps float64
			for i := 0; i < b.N; i++ {
				r := runOnce(b, p.forcedFix, 7)
				if e := r.MaxEpisode(); e != nil {
					retries = float64(e.Retries)
					recSteps = float64(e.Duration())
				}
			}
			b.ReportMetric(retries, "retries")
			b.ReportMetric(recSteps, "recovery-steps")
		})
	}
}

func BenchmarkTable7_Restart(b *testing.B) {
	for _, app := range benchApps {
		bug := bugs.ByName(app)
		failing := bug.Program(bugs.Config{ForceBug: true})
		clean := bugs.ByName(app).Program(bugs.Config{})
		b.Run(app, func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				rr := baseline.Restart(failing, clean, 7, 500_000_000)
				if !rr.Recovered {
					b.Fatal("restart rerun failed")
				}
				total = rr.TotalSteps
			}
			b.ReportMetric(float64(total), "restart-steps")
		})
	}
}

// --- Figure 2: atomicity-violation patterns ------------------------------

func BenchmarkFigure2_Patterns(b *testing.B) {
	for _, p := range bugs.Figure2Patterns() {
		if !p.ConAirRecovers {
			continue // recovery benchmarks only make sense where it recovers
		}
		m := p.Build()
		h, err := core.Harden(m, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runOnce(b, h.Module, int64(i))
			}
		})
	}
}

// --- Figure 4: design-space ablation --------------------------------------

func BenchmarkFigure4_Tradeoff(b *testing.B) {
	p := prep(b, "ZSNES")

	b.Run("ConAirIdempotent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runOnce(b, p.cleanSurv, 1)
		}
	})
	for _, interval := range []int64{1_000, 10_000, 100_000} {
		cfg := baseline.CheckpointConfig{
			Interval: interval, Seed: 5, MaxSteps: 500_000_000,
		}
		b.Run("FullCheckpoint/interval="+itoa(interval), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := baseline.RunCheckpointed(p.clean, cfg)
				if !r.Completed {
					b.Fatal("checkpoint baseline failed")
				}
			}
		})
	}
	b.Run("Restart", func(b *testing.B) {
		failing := bugs.ByName("ZSNES").Program(bugs.Config{ForceBug: true})
		for i := 0; i < b.N; i++ {
			rr := baseline.Restart(failing, p.clean, 7, 500_000_000)
			if !rr.Recovered {
				b.Fatal("restart failed")
			}
		}
	})
}

func itoa(v int64) string {
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// --- §6.4: static analysis time -------------------------------------------

func BenchmarkAnalysis_Survival(b *testing.B) {
	for _, app := range benchApps {
		m := bugs.ByName(app).Program(bugs.Config{Light: true})
		b.Run(app+"/Full", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Harden(m, core.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(app+"/IntraOnly", func(b *testing.B) {
			b.ReportAllocs()
			opts := core.DefaultOptions()
			opts.Interproc = false
			for i := 0; i < b.N; i++ {
				if _, err := core.Harden(m, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Microbenchmarks --------------------------------------------------------

// BenchmarkMicro_InterpreterThroughput measures raw interpreter speed on a
// register-only compute loop (steps per second ~ 1/op time).
func BenchmarkMicro_InterpreterThroughput(b *testing.B) {
	m := mir.MustParse(`
func main() {
entry:
  %i = const 0
  %acc = const 1
  jmp loop
loop:
  %t = mul %acc, 3
  %acc = add %t, %i
  %i = add %i, 1
  %c = lt %i, 100000
  br %c, loop, out
out:
  ret %acc
}`)
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		steps = runOnce(b, m, 1).Stats.Steps
	}
	b.ReportMetric(float64(steps), "steps/run")
}

// BenchmarkMicro_CheckpointCost isolates the cost of one checkpoint
// (register-image save): the same loop with and without a checkpoint per
// iteration.
func BenchmarkMicro_CheckpointCost(b *testing.B) {
	loop := func(withCheckpoint string) *mir.Module {
		return mir.MustParse(`
func main() {
entry:
  %i = const 0
  jmp loop
loop:
  ` + withCheckpoint + `
  %i = add %i, 1
  %c = lt %i, 100000
  br %c, loop, out
out:
  ret
}`)
	}
	b.Run("Without", func(b *testing.B) {
		m := loop("nop")
		for i := 0; i < b.N; i++ {
			runOnce(b, m, 1)
		}
	})
	b.Run("With", func(b *testing.B) {
		m := loop("checkpoint 1")
		for i := 0; i < b.N; i++ {
			runOnce(b, m, 1)
		}
	})
}

// BenchmarkMicro_CallReturn stresses the call/return hot path: a tight
// loop calling a tiny function per iteration. Frame pooling shows up here
// as the allocs/op drop (one pooled frame instead of a fresh regs+slots
// allocation per call).
func BenchmarkMicro_CallReturn(b *testing.B) {
	m := mir.MustParse(`
func work(%a) {
entry:
  %t = mul %a, 3
  %r = add %t, 1
  ret %r
}
func main() {
entry:
  %i = const 0
  %acc = const 0
  jmp loop
loop:
  %v = call work(%i)
  %acc = add %acc, %v
  %i = add %i, 1
  %c = lt %i, 50000
  br %c, loop, out
out:
  ret %acc
}`)
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		steps = runOnce(b, m, 1).Stats.Steps
	}
	b.ReportMetric(float64(steps), "steps/run")
}

// BenchmarkMicro_HeapLoadStore walks loads and stores across two heap
// blocks, exercising the address→block resolution (last-block cache plus
// binary search) on every memory instruction.
func BenchmarkMicro_HeapLoadStore(b *testing.B) {
	m := mir.MustParse(`
func main() {
entry:
  %a = alloc 64
  %bb = alloc 64
  %i = const 0
  jmp loop
loop:
  %off = and %i, 63
  %pa = add %a, %off
  %pb = add %bb, %off
  store %pa, %i
  %v = load %pa
  store %pb, %v
  %w = load %pb
  %i = add %i, 1
  %c = lt %i, 25000
  br %c, loop, out
out:
  ret
}`)
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		steps = runOnce(b, m, 1).Stats.Steps
	}
	b.ReportMetric(float64(steps), "steps/run")
}

// BenchmarkMicro_ManyThreads interleaves eight compute threads, stressing
// the per-step scheduler path (runnable-set construction + seeded pick)
// rather than instruction dispatch.
func BenchmarkMicro_ManyThreads(b *testing.B) {
	m := mir.MustParse(`
func worker() {
entry:
  %i = const 0
  jmp loop
loop:
  %i = add %i, 1
  %c = lt %i, 20000
  br %c, loop, out
out:
  ret
}
func main() {
entry:
  %t0 = spawn worker()
  %t1 = spawn worker()
  %t2 = spawn worker()
  %t3 = spawn worker()
  %t4 = spawn worker()
  %t5 = spawn worker()
  %t6 = spawn worker()
  %t7 = spawn worker()
  join %t0
  join %t1
  join %t2
  join %t3
  join %t4
  join %t5
  join %t6
  join %t7
  ret 0
}`)
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		steps = runOnce(b, m, 1).Stats.Steps
	}
	b.ReportMetric(float64(steps), "steps/run")
}

// BenchmarkMicro_EngineSweep runs a Table 3-shaped seed sweep (hardened
// ZSNES, forced failure) through the parallel run engine at one worker and
// at GOMAXPROCS workers. The two variants produce identical results; the
// wall-clock gap is the engine's scaling on this machine.
func BenchmarkMicro_EngineSweep(b *testing.B) {
	p := prep(b, "ZSNES")
	const seeds = 16
	sweep := func(workers int) {
		e := runner.Engine{Workers: workers}
		ok := runner.Map(e, seeds, func(i int) bool {
			r := interp.RunModule(p.forcedSurv, runner.SeedConfig(int64(i), 500_000_000))
			return r.Completed
		})
		for i, c := range ok {
			if !c {
				b.Fatalf("seed %d did not recover", i)
			}
		}
	}
	b.Run("workers=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep(1)
		}
	})
	b.Run("workers=max", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep(runtime.GOMAXPROCS(0))
		}
	})
}

// BenchmarkMicro_HardenPipeline measures the full static pipeline on the
// largest app.
func BenchmarkMicro_HardenPipeline(b *testing.B) {
	m := bugs.ByName("MySQL1").Program(bugs.Config{Light: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Harden(m, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_ParsePrint round-trips the largest textual module.
func BenchmarkMicro_ParsePrint(b *testing.B) {
	m := bugs.ByName("Transmission").Program(bugs.Config{Light: true})
	text := mir.Print(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mm, err := mir.Parse(text)
		if err != nil {
			b.Fatal(err)
		}
		_ = mir.Print(mm)
	}
}
