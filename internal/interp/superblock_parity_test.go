package interp_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/mirgen"
	"conair/internal/obs"
	"conair/internal/sanitizer"
	"conair/internal/sched"
)

// The superblock-parity tests pin the batching contract stated at
// runLoop: Run, which executes superblocks as batched quanta, is
// observation-equivalent to the same run driven one instruction at a time
// by StepOnce, which never batches — identical Result (completion,
// failure, exit code, outputs, step counts, recovery stats) AND an
// identical schedule-decision stream, decision by decision. The second
// half is the stronger claim: batching may only change how many times the
// loop re-enters, never which thread is picked at which virtual-time step,
// because record-and-replay keys off that stream.

const (
	parityMaxSteps = 150_000
	// Ring capacity sized so no event is ever dropped at parityMaxSteps:
	// one KindSchedPick per executed instruction plus lifecycle, lock and
	// output events, which the corpus keeps well under 2x the pick count.
	parityTracerCap = 1 << 19
)

// schedPick is one scheduling decision: thread tid was chosen at virtual
// time step.
type schedPick struct {
	step int64
	tid  int32
}

// runModule executes m under cfg with Run or, when stepped, with a
// StepOnce loop: one instruction per call, so no superblock is batched.
func runModule(m *mir.Module, cfg interp.Config, stepped bool) interp.Counted {
	if !stepped {
		return interp.RunCounted(m, cfg)
	}
	vm := interp.New(m, cfg)
	for vm.StepOnce() {
	}
	return interp.Counted{Result: *vm.Finish(), CheckpointExecs: vm.CheckpointExecs()}
}

// runTraced executes m once with a dedicated tracer and returns the
// Result plus the full schedule-decision stream.
func runTraced(t *testing.T, m *mir.Module, seed int64, stepped bool) (interp.Counted, []schedPick) {
	t.Helper()
	tr := obs.NewTracer(parityTracerCap)
	r := runModule(m, interp.Config{
		Sched:         sched.NewRandom(seed),
		MaxSteps:      parityMaxSteps,
		CollectOutput: true,
		Sink:          tr,
	}, stepped)
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("tracer dropped %d events; raise parityTracerCap", d)
	}
	var picks []schedPick
	for _, e := range tr.Events() {
		if e.Kind == obs.KindSchedPick {
			picks = append(picks, schedPick{e.Step, e.TID})
		}
	}
	return r, picks
}

// parityCompare runs m with Run and with StepOnce across seeds and fails
// on any divergence.
func parityCompare(t *testing.T, name string, m *mir.Module, seeds []int64) {
	t.Helper()
	for _, seed := range seeds {
		batched, batchedPicks := runTraced(t, m, seed, false)
		stepped, steppedPicks := runTraced(t, m, seed, true)

		if !reflect.DeepEqual(batched, stepped) {
			t.Errorf("%s seed %d: Run and StepOnce results differ\nRun:      %+v\nStepOnce: %+v",
				name, seed, batched, stepped)
			if batched.Failure != nil || stepped.Failure != nil {
				t.Errorf("failures: Run=%+v StepOnce=%+v", batched.Failure, stepped.Failure)
			}
			return
		}
		if len(batchedPicks) != len(steppedPicks) {
			t.Errorf("%s seed %d: schedule streams differ in length: Run=%d StepOnce=%d",
				name, seed, len(batchedPicks), len(steppedPicks))
			return
		}
		for i := range batchedPicks {
			if batchedPicks[i] != steppedPicks[i] {
				t.Errorf("%s seed %d: schedule streams diverge at decision %d: Run=%+v StepOnce=%+v",
					name, seed, i, batchedPicks[i], steppedPicks[i])
				return
			}
		}
	}
}

// TestSuperblockParityTestdata runs every checked-in .mir program — raw
// and hardened — with Run against StepOnce across several seeds.
func TestSuperblockParityTestdata(t *testing.T) {
	files := testdataPrograms(t)
	seeds := []int64{0, 1, 7, 42, 12345}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := mir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		name := filepath.Base(path)
		parityCompare(t, name, m, seeds)
		sinkFreeCompare(t, name, m, seeds, plainCase{maxSteps: parityMaxSteps})

		h, err := core.Harden(m, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: harden: %v", path, err)
		}
		parityCompare(t, name+"+hardened", h.Module, seeds)
		sinkFreeCompare(t, name+"+hardened", h.Module, seeds, plainCase{maxSteps: parityMaxSteps})
	}
}

// TestSuperblockParityMirgen sweeps 50 generated programs — cycling
// thread counts and all bug templates, each raw AND hardened — with Run
// against StepOnce. Hardened programs are the leg that matters most
// here: checkpoints, site branches and recovery blocks are exactly the
// scheduling-relevant instructions that must break superblocks.
func TestSuperblockParityMirgen(t *testing.T) {
	bugs := []mirgen.BugKind{
		mirgen.BugNone, mirgen.BugOrder, mirgen.BugAtomicity, mirgen.BugLockInversion,
		mirgen.BugLostSignal, mirgen.BugMissedBroadcast, mirgen.BugChannelDeadlock,
		mirgen.BugCASABA,
	}
	seeds := []int64{0, 3}
	for i := 0; i < 50; i++ {
		cfg := mirgen.Config{
			Seed:    int64(i),
			Threads: i % 4,
			Bug:     bugs[i%len(bugs)],
		}
		m := mirgen.Gen(cfg)
		name := cfg.Bug.String()
		parityCompare(t, name, m, seeds)
		sinkFreeCompare(t, name, m, seeds, plainCase{maxSteps: parityMaxSteps})

		h, err := core.Harden(m, core.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: harden: %v", i, err)
		}
		parityCompare(t, name+"+hardened", h.Module, seeds)
		sinkFreeCompare(t, name+"+hardened", h.Module, seeds, plainCase{maxSteps: parityMaxSteps})
	}
}

// The sink-free leg pins the path the traced tests above cannot reach:
// without a Sink, a quantum with one live thread skips its draws and
// advances the scheduler's stream in bulk at the exit. Run and StepOnce
// must still agree on the Result, on the stream
// position after the run (the next draw), and — with a FlightRecorder
// wrapping the Random — on the recorded segment and Intn streams.

// plainRun is the observable outcome of one sink-free run.
type plainRun struct {
	res   interp.Counted
	next  int // the scheduler's next Intn(1<<30) after the run
	segs  []sched.Segment
	intns []int64
}

// plainCase configures a sink-free run: its step cutoff and whether a
// watchdog trips (see tripSan).
type plainCase struct {
	maxSteps int64
	watchdog bool
}

// tripSan is a real race detector that also arms the run's watchdog
// flag on the first shared-memory access, so the watchdog fires at the
// next poll point (step 65536) at the same virtual time in every run.
type tripSan struct {
	interp.Sanitizer
	flag *atomic.Bool
}

func (s *tripSan) Access(tid int, addr mir.Word, write bool, pos mir.Pos) {
	s.flag.Store(true)
	s.Sanitizer.Access(tid, addr, write, pos)
}

func runPlain(t *testing.T, m *mir.Module, seed int64, c plainCase, stepped, flight bool) plainRun {
	t.Helper()
	rnd := sched.NewRandom(seed)
	cfg := interp.Config{
		Sched:         rnd,
		MaxSteps:      c.maxSteps,
		CollectOutput: true,
	}
	var fr *sched.FlightRecorder
	if flight {
		fr = sched.NewFlightRecorder(rnd, 1<<20)
		cfg.Sched = fr
	}
	if c.watchdog {
		var flag atomic.Bool
		cfg.Interrupt = &flag
		cfg.Sanitizer = &tripSan{Sanitizer: sanitizer.New(m), flag: &flag}
	}
	r := plainRun{res: runModule(m, cfg, stepped)}
	r.next = rnd.Intn(1 << 30)
	if fr != nil {
		if fr.Truncated() {
			t.Fatalf("flight ring truncated after %d picks; raise its limit", fr.Picks())
		}
		r.segs, r.intns = fr.Segments(), fr.Intns()
	}
	return r
}

// sinkFreeCompare runs m with Run and with StepOnce, with and without a
// flight recorder, across seeds, and fails on the first divergence.
func sinkFreeCompare(t *testing.T, name string, m *mir.Module, seeds []int64, c plainCase) {
	t.Helper()
	for _, seed := range seeds {
		for _, flight := range []bool{false, true} {
			batched := runPlain(t, m, seed, c, false, flight)
			stepped := runPlain(t, m, seed, c, true, flight)
			where := fmt.Sprintf("%s seed %d flight=%v", name, seed, flight)
			if !reflect.DeepEqual(batched.res, stepped.res) {
				t.Errorf("%s: Run and StepOnce results differ\nRun:      %+v\nStepOnce: %+v",
					where, batched.res, stepped.res)
				return
			}
			if batched.next != stepped.next {
				t.Errorf("%s: stream position differs after the run: next draw %d Run, %d StepOnce",
					where, batched.next, stepped.next)
				return
			}
			if !reflect.DeepEqual(batched.segs, stepped.segs) || !reflect.DeepEqual(batched.intns, stepped.intns) {
				t.Errorf("%s: flight streams differ\nRun:      %v %v\nStepOnce: %v %v",
					where, batched.segs, batched.intns, stepped.segs, stepped.intns)
				return
			}
		}
	}
}

// TestSuperblockParitySinkFreeBugs covers the recovery traffic: the 13
// programs' light forced builds, raw and survival-hardened.
func TestSuperblockParitySinkFreeBugs(t *testing.T) {
	for _, b := range append(bugs.All(), bugs.Corpus()...) {
		m := b.Program(bugs.Config{Light: true, ForceBug: true})
		sinkFreeCompare(t, b.Name, m, []int64{1, 17}, plainCase{maxSteps: parityMaxSteps})
		h, err := core.Harden(m, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: harden: %v", b.Name, err)
		}
		sinkFreeCompare(t, b.Name+"+hardened", h.Module, []int64{1, 17}, plainCase{maxSteps: parityMaxSteps})
	}
}

// spinSrc runs one thread through a 20000-iteration slot-counter loop:
// every instruction from the first stores to the output is superblock-
// eligible, so the whole loop (100005 instructions) is one quantum
// that crosses 165 generator refill blocks. The loadg before it
// is the first shared access, which arms tripSan's watchdog.
const spinSrc = `module spin
global g = 0

func main() {
entry:
  %g = loadg @g
  stores $i, %g
  jmp loop
loop:
  %i = loads $i
  %n = add %i, 1
  stores $i, %n
  %c = lt %n, 20000
  br %c, loop, done
done:
  output "i", %n
  ret 0
}
`

// TestSuperblockParitySinkFreeLongQuantum runs the one-thread spin loop
// to completion, cut by MaxSteps inside the quantum (around refill
// boundaries too), and stopped by the watchdog inside the quantum. With
// one thread every executed instruction owns exactly one draw, so beyond
// parity the stream must sit exactly Steps draws into math/rand's.
func TestSuperblockParitySinkFreeLongQuantum(t *testing.T) {
	m, err := mir.Parse(spinSrc)
	if err != nil {
		t.Fatal(err)
	}
	cases := []plainCase{{maxSteps: parityMaxSteps}, {maxSteps: parityMaxSteps, watchdog: true}}
	for _, max := range []int64{3, 606, 607, 608, 609, 1000, 3*607 + 5, 100_003} {
		cases = append(cases, plainCase{maxSteps: max})
	}
	for _, c := range cases {
		name := fmt.Sprintf("spin max=%d watchdog=%v", c.maxSteps, c.watchdog)
		sinkFreeCompare(t, name, m, []int64{0, 5}, c)

		r := runPlain(t, m, 5, c, false, false)
		switch {
		case c.watchdog && (r.res.Failure == nil || r.res.Stats.Steps != 1<<16):
			t.Fatalf("%s: want a watchdog stop at step 65536, got steps=%d failure=%v", name, r.res.Stats.Steps, r.res.Failure)
		case !c.watchdog && c.maxSteps < parityMaxSteps && r.res.Stats.Steps != c.maxSteps:
			t.Fatalf("%s: stopped at step %d", name, r.res.Stats.Steps)
		case c.maxSteps == parityMaxSteps && !c.watchdog && !r.res.Completed:
			t.Fatalf("%s: did not complete: %v", name, r.res.Failure)
		}
		want := rand.New(rand.NewSource(5))
		for i := int64(0); i < r.res.Stats.Steps; i++ {
			want.Int31()
		}
		if w := want.Intn(1 << 30); r.next != w {
			t.Fatalf("%s: next draw %d, want %d (math/rand after %d draws)", name, r.next, w, r.res.Stats.Steps)
		}
	}
}

// The budget-edge tests pin the batched quanta exactly where their
// budgets end: a one-thread sched.Random quantum and a stayed PCT quantum,
// each cut by MaxSteps and by the watchdog's 65,536-step poll, and the
// stayed one also at, just before and just after the end of a stay
// budget. Each run is traced and flight-recorded, so Run and StepOnce must
// agree on the Result, the sink's pick stream, the scheduler's next draw
// and the flight segments.

// spin2Src runs two threads through the slot-counter loop of spinSrc, so
// under PCT the quanta are stayed picks over a two-thread runnable set.
const spin2Src = `module spin2
global g = 0

func worker() {
entry:
  jmp loop
loop:
  %i = loads $i
  %n = add %i, 1
  stores $i, %n
  %c = lt %n, 10000
  br %c, loop, done
done:
  ret 0
}

func main() {
entry:
  %g = loadg @g
  %t = spawn worker()
  jmp loop
loop:
  %i = loads $i
  %n = add %i, 1
  stores $i, %n
  %c = lt %n, 10000
  br %c, loop, done
done:
  join %t
  output "i", %n
  ret 0
}
`

// edgeRun is the observable outcome of one traced, flight-recorded run.
type edgeRun struct {
	res   interp.Counted
	picks []schedPick
	next  int // the scheduler's next Intn(1<<30) after the run
	segs  []sched.Segment
	intns []int64
}

// stayEdges wraps PCT and logs the step at which each finite stay budget
// it grants ends: the step of the next real pick.
type stayEdges struct {
	*sched.PCT
	edges []int64
}

func (s *stayEdges) Stay(tid int, runnable []int, step int64) int64 {
	k := s.PCT.Stay(tid, runnable, step)
	if k < math.MaxInt64-step {
		s.edges = append(s.edges, step+k)
	}
	return k
}

func runEdge(t *testing.T, m *mir.Module, s sched.Scheduler, c plainCase, stepped bool) edgeRun {
	t.Helper()
	fr := sched.NewFlightRecorder(s, 1<<20)
	tr := obs.NewTracer(parityTracerCap)
	cfg := interp.Config{Sched: fr, MaxSteps: c.maxSteps, CollectOutput: true, Sink: tr}
	if c.watchdog {
		var flag atomic.Bool
		cfg.Interrupt = &flag
		cfg.Sanitizer = &tripSan{Sanitizer: sanitizer.New(m), flag: &flag}
	}
	r := edgeRun{res: runModule(m, cfg, stepped)}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("tracer dropped %d events; raise parityTracerCap", d)
	}
	for _, e := range tr.Events() {
		if e.Kind == obs.KindSchedPick {
			r.picks = append(r.picks, schedPick{e.Step, e.TID})
		}
	}
	if fr.Truncated() {
		t.Fatalf("flight ring truncated after %d picks; raise its limit", fr.Picks())
	}
	r.next = s.Intn(1 << 30)
	r.segs, r.intns = fr.Segments(), fr.Intns()
	return r
}

// edgeCompare runs m with Run and with StepOnce under fresh schedulers
// from mk and fails on the first divergence.
func edgeCompare(t *testing.T, name string, m *mir.Module, mk func() sched.Scheduler, c plainCase) interp.Counted {
	t.Helper()
	batched := runEdge(t, m, mk(), c, false)
	stepped := runEdge(t, m, mk(), c, true)
	where := fmt.Sprintf("%s max=%d watchdog=%v", name, c.maxSteps, c.watchdog)
	switch {
	case !reflect.DeepEqual(batched.res, stepped.res):
		t.Errorf("%s: results differ\nRun:      %+v\nStepOnce: %+v", where, batched.res, stepped.res)
	case !reflect.DeepEqual(batched.picks, stepped.picks):
		t.Errorf("%s: pick streams differ (%d and %d picks)", where, len(batched.picks), len(stepped.picks))
	case batched.next != stepped.next:
		t.Errorf("%s: next draw %d Run, %d StepOnce", where, batched.next, stepped.next)
	case !reflect.DeepEqual(batched.segs, stepped.segs) || !reflect.DeepEqual(batched.intns, stepped.intns):
		t.Errorf("%s: flight streams differ\nRun:      %v %v\nStepOnce: %v %v",
			where, batched.segs, batched.intns, stepped.segs, stepped.intns)
	}
	return batched.res
}

// TestBudgetEdgeOneThread cuts the one-thread Random quantum of spinSrc by
// MaxSteps, by the watchdog poll, and by both at once.
func TestBudgetEdgeOneThread(t *testing.T) {
	m, err := mir.Parse(spinSrc)
	if err != nil {
		t.Fatal(err)
	}
	cases := []plainCase{
		{maxSteps: parityMaxSteps, watchdog: true},
		{maxSteps: 1 << 16, watchdog: true},
		{maxSteps: 1<<16 + 1, watchdog: true},
	}
	for _, max := range []int64{3, 4, 1000, 1<<16 - 1, 1 << 16, 1<<16 + 1, 100_003} {
		cases = append(cases, plainCase{maxSteps: max})
	}
	for _, c := range cases {
		mk := func() sched.Scheduler { return sched.NewRandom(5) }
		r := edgeCompare(t, "spin random", m, mk, c)
		want := c.maxSteps
		if c.watchdog {
			want = min(want, 1<<16)
		}
		if r.Failure == nil || r.Stats.Steps != want {
			t.Errorf("max=%d watchdog=%v: stopped at step %d (%v), want a hang at %d",
				c.maxSteps, c.watchdog, r.Stats.Steps, r.Failure, want)
		}
	}
}

// TestBudgetEdgeStayed cuts the stayed PCT quanta of spinSrc (one thread)
// and spin2Src (two) by the watchdog poll, and by MaxSteps at, around and
// between the ends of the stay budgets PCT grants.
func TestBudgetEdgeStayed(t *testing.T) {
	for _, src := range []string{spinSrc, spin2Src} {
		m, err := mir.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 4} {
			name := fmt.Sprintf("%s pct(%d)", m.Name, seed)
			mk := func() sched.Scheduler { return sched.NewPCT(seed, 4, 60_000) }
			// The uncut run logs where its stay budgets end (the first
			// scheduler made is the batched run's).
			var probe *stayEdges
			full := edgeCompare(t, name, m, func() sched.Scheduler {
				s := &stayEdges{PCT: sched.NewPCT(seed, 4, 60_000)}
				if probe == nil {
					probe = s
				}
				return s
			}, plainCase{maxSteps: parityMaxSteps})
			if !full.Completed {
				t.Fatalf("%s: did not complete: %v", name, full.Failure)
			}
			var edges []int64
			for _, e := range probe.edges {
				if e > 1 && e < full.Stats.Steps && !slices.Contains(edges, e) {
					edges = append(edges, e)
				}
			}
			if len(edges) == 0 {
				t.Fatalf("%s: no stay budget ended inside the run", name)
			}
			t.Logf("%s: stay budgets end at steps %v", name, edges)
			cases := []plainCase{{maxSteps: parityMaxSteps, watchdog: true}}
			for _, e := range edges {
				for _, max := range []int64{e - 1, e, e + 1, e + 2} {
					cases = append(cases, plainCase{maxSteps: max})
				}
			}
			for _, c := range cases {
				r := edgeCompare(t, name, m, mk, c)
				if c.watchdog && r.Stats.Steps != 1<<16 {
					t.Errorf("%s: watchdog stopped the run at step %d, want 65536", name, r.Stats.Steps)
				}
			}
		}
	}
}

// TestCompileFusesLatches checks the fused loop latch over the 13
// programs, light-forced and full, raw and survival-hardened, the eight
// mirgen templates, and a latch whose branch carries a failure site: every
// add-immediate → compare-immediate → plain-br chain in one block is
// fused, a site-tagged branch never is, and no other slot changes. The
// hot loop of every paper bug's workload must fuse in both builds.
func TestCompileFusesLatches(t *testing.T) {
	paper, total := len(bugs.All()), 0
	for bi, b := range append(bugs.All(), bugs.Corpus()...) {
		for _, cfg := range []bugs.Config{{Light: true, ForceBug: true}, {}} {
			name := fmt.Sprintf("%s light=%v", b.Name, cfg.Light)
			m := b.Program(cfg)
			h, err := core.Harden(m, core.DefaultOptions())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			raw, hard := interp.CheckLatches(t, name, m), interp.CheckLatches(t, name+" hardened", h.Module)
			if bi < paper && (raw == 0 || hard == 0) {
				t.Errorf("%s: %d latches fused raw, %d hardened; want the hot loop's in both", name, raw, hard)
			}
			total += raw + hard
		}
	}
	kinds := []mirgen.BugKind{
		mirgen.BugNone, mirgen.BugOrder, mirgen.BugAtomicity, mirgen.BugLockInversion,
		mirgen.BugLostSignal, mirgen.BugMissedBroadcast, mirgen.BugChannelDeadlock,
		mirgen.BugCASABA,
	}
	fused := 0
	for i, k := range kinds {
		fused += interp.CheckLatches(t, k.String(), mirgen.Gen(mirgen.Config{Seed: int64(i), Threads: 2, Bug: k}))
	}
	if fused == 0 {
		t.Error("no latch fused in any mirgen template")
	}
	t.Logf("%d latches fused in the 52 builds of the 13 programs, %d in the mirgen templates", total, fused)

	m, err := mir.Parse(`
func main() {
entry:
  %i = const 0
  jmp loop
loop:
  %i = add %i, 1
  %c = lt %i, 3
  br %c, loop, done !site 1
done:
  ret %i
}`)
	if err != nil {
		t.Fatal(err)
	}
	if n := interp.CheckLatches(t, "site-tagged", m); n != 0 {
		t.Errorf("site-tagged latch: %d fused", n)
	}
}
