package replay_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"
	"weak"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/mirgen"
	"conair/internal/replay"
	"conair/internal/sched"
)

const testMaxSteps = 20_000_000

func pctCfg(seed int64) interp.Config {
	return interp.Config{Sched: sched.NewSearchPCT(seed), MaxSteps: testMaxSteps}
}

func randCfg(seed int64) interp.Config {
	return interp.Config{Sched: sched.NewRandom(seed), MaxSteps: testMaxSteps}
}

// roundTrip records one run of mod under cfg, replays it through an
// encode/decode cycle, and requires the replayed Result to DeepEqual the
// recorded one with an identical fingerprint and zero divergences.
func roundTrip(t *testing.T, mod *mir.Module, cfg interp.Config, label string) *replay.Recording {
	t.Helper()
	orig, rec := replay.Record(mod, cfg, replay.Meta{Label: label})

	decoded, err := replay.Decode(replay.Encode(rec))
	if err != nil {
		t.Fatalf("%s: decode(encode): %v", label, err)
	}
	m2, err := decoded.Module()
	if err != nil {
		t.Fatalf("%s: embedded module: %v", label, err)
	}
	got, sr := replay.Run(m2, decoded, replay.RunOptions{})
	if d := sr.Diverged(); d > 0 {
		t.Fatalf("%s: replay diverged on %d decisions", label, d)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Fatalf("%s: replayed Result differs from recorded run\n got %+v\nwant %+v",
			label, got, orig)
	}
	if fp := replay.FingerprintOf(got); fp != rec.Fingerprint {
		t.Fatalf("%s: fingerprint mismatch\n got %+v\nwant %+v", label, fp, rec.Fingerprint)
	}
	if err := replay.Verify(mod, decoded); err != nil {
		t.Fatalf("%s: Verify: %v", label, err)
	}
	return rec
}

// TestPaperBugsRoundTrip records every paper benchmark bug — raw forced
// program and survival-hardened variant — under PCT search schedules and
// requires each recording to replay bit-identically.
func TestPaperBugsRoundTrip(t *testing.T) {
	for _, b := range bugs.All() {
		raw := b.Program(bugs.Config{Light: true, ForceBug: true})
		h, err := core.Harden(raw, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: harden: %v", b.Name, err)
		}
		failed := false
		for seed := int64(0); seed < 3; seed++ {
			rec := roundTrip(t, raw, pctCfg(seed), b.Name+"-raw")
			failed = failed || rec.Fingerprint.Failed
			roundTrip(t, h.Module, pctCfg(seed), b.Name+"-hardened")
		}
		if !failed {
			t.Errorf("%s: no PCT seed in the search failed on the raw forced program", b.Name)
		}
	}
}

// templateConfigs yields the 50 mirgen bug-template generator seeds the
// replay and minimization tests sweep, cycling all seven template kinds.
func templateConfigs() []mirgen.Config {
	kinds := []mirgen.BugKind{mirgen.BugOrder, mirgen.BugAtomicity, mirgen.BugLockInversion,
		mirgen.BugLostSignal, mirgen.BugMissedBroadcast, mirgen.BugChannelDeadlock, mirgen.BugCASABA}
	cfgs := make([]mirgen.Config, 0, 50)
	for i := 0; i < 50; i++ {
		cfgs = append(cfgs, mirgen.Config{Seed: int64(i), Threads: 2, Bug: kinds[i%len(kinds)]})
	}
	return cfgs
}

// TestMirgenTemplatesRoundTrip records 50 generated bug templates under
// PCT search schedules; every recording — failing or not — must replay to
// a DeepEqual Result and identical fingerprint.
func TestMirgenTemplatesRoundTrip(t *testing.T) {
	for _, gc := range templateConfigs() {
		mod, info := mirgen.GenWithInfo(gc)
		if info == nil {
			t.Fatalf("seed %d: no injected bug", gc.Seed)
		}
		label := info.Kind.String()
		for seed := int64(0); seed < 2; seed++ {
			roundTrip(t, mod, pctCfg(seed), label)
		}
	}
}

// recordFailure searches scheduler seeds for a failing run of mod and
// returns its recording, or nil when the budget stays clean.
func recordFailure(mod *mir.Module, budget int64, cfg func(int64) interp.Config) *replay.Recording {
	for seed := int64(0); seed < budget; seed++ {
		_, rec := replay.Record(mod, cfg(seed), replay.Meta{Seed: seed})
		if rec.Fingerprint.Failed {
			return rec
		}
	}
	return nil
}

// TestMinimizeMirgenTemplates is the ddmin property test: for every
// mirgen bug template whose failure a random-schedule search finds, the
// minimized stream must still fail with the same failure key, be
// 1-minimal within the probe budget, and cut the context-switch count of
// the recorded schedule by at least 5x.
func TestMinimizeMirgenTemplates(t *testing.T) {
	minimized := 0
	for _, gc := range templateConfigs() {
		mod, info := mirgen.GenWithInfo(gc)
		rec := recordFailure(mod, 10, randCfg)
		if rec == nil {
			// Not every template fails under every schedule (atomicity and
			// lock-inversion bugs are schedule-dependent); the ones that do
			// carry the assertions.
			continue
		}
		label := info.Kind.String()
		min, err := replay.Minimize(mod, rec, replay.MinimizeOptions{})
		if err != nil {
			t.Fatalf("%s seed %d: minimize: %v", label, gc.Seed, err)
		}

		// Property 1: the minimized stream still produces the same failure.
		if !min.Rec.Fingerprint.SameFailure(rec.Fingerprint) {
			t.Fatalf("%s seed %d: minimized failure %s, want %s",
				label, gc.Seed, min.Rec.Fingerprint.FailureKey(), rec.Fingerprint.FailureKey())
		}
		// Property 2: 1-minimality — removing any single remaining segment
		// loses the failure. Minimize already verified this via its singles
		// pass; re-check independently on the final stream.
		if !min.OneMinimal {
			t.Errorf("%s seed %d: minimization did not reach 1-minimality within %d probes",
				label, gc.Seed, min.Probes)
		} else {
			for i := range min.Rec.Segments {
				if len(min.Rec.Segments) == 1 {
					break
				}
				cand := *min.Rec
				cand.Segments = sched.MergeSegments(
					append(append([]sched.Segment{}, min.Rec.Segments[:i]...), min.Rec.Segments[i+1:]...))
				r, _ := replay.Run(mod, &cand, replay.RunOptions{MaxSteps: 4 * rec.Fingerprint.Steps})
				if replay.FingerprintOf(r).SameFailure(rec.Fingerprint) {
					t.Fatalf("%s seed %d: not 1-minimal: segment %d/%d is removable",
						label, gc.Seed, i, len(min.Rec.Segments))
				}
			}
		}
		// Property 3: >=5x context-switch reduction on the recorded schedule.
		if min.SwitchesAfter*5 > min.SwitchesBefore {
			t.Errorf("%s seed %d: switches %d -> %d, want >=5x reduction",
				label, gc.Seed, min.SwitchesBefore, min.SwitchesAfter)
		}
		// The minimized artifact must itself survive an encode/decode/verify
		// round trip.
		dec, err := replay.Decode(replay.Encode(min.Rec))
		if err != nil {
			t.Fatalf("%s seed %d: decode minimized: %v", label, gc.Seed, err)
		}
		if err := replay.Verify(mod, dec); err != nil {
			t.Fatalf("%s seed %d: verify minimized: %v", label, gc.Seed, err)
		}
		minimized++
	}
	if minimized < 20 {
		t.Fatalf("only %d/50 templates produced a failing recording to minimize; the search is broken", minimized)
	}
	t.Logf("minimized %d/50 template failures", minimized)
}

// spinSrc hangs at any step limit: its worker spins on a flag nobody
// sets, and main joins the worker.
const spinSrc = `
global flag = 0

func spin() {
entry:
  jmp loop
loop:
  %f = loadg @flag
  br %f, done, loop
done:
  ret 0
}

func main() {
entry:
  %t = spawn spin()
  join %t
  ret 0
}`

// TestMinimizeStampsOwnRun pins the minimized artifact's fingerprint to a
// run of its stream under its own step bound, on both of Minimize's
// paths: the 13 programs' light forced builds fail before any bound, and
// their fingerprint comes from the last accepted probe; the spinning
// program hangs at its bound, which also caps the probe watchdog, and a
// hang is stamped by a run of its own, never by a probe.
func TestMinimizeStampsOwnRun(t *testing.T) {
	spin, err := mir.Parse(spinSrc)
	if err != nil {
		t.Fatal(err)
	}
	_, hang := replay.Record(spin, interp.Config{Sched: sched.NewRandom(0), MaxSteps: 5000}, replay.Meta{})
	if hang.Fingerprint.FailKind != mir.FailHang {
		t.Fatalf("spin: recorded %s, want a hang", hang.Fingerprint.FailureKey())
	}
	check := func(name string, mod *mir.Module, rec *replay.Recording) {
		min, err := replay.Minimize(mod, rec, replay.MinimizeOptions{ProbeBudget: 512})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := replay.Verify(mod, min.Rec); err != nil {
			t.Errorf("%s (%s): minimized artifact: %v", name, rec.Fingerprint.FailureKey(), err)
		}
	}
	check("spin", spin, hang)
	for _, bug := range append(bugs.All(), bugs.Corpus()...) {
		mod := bug.Program(bugs.Config{Light: true, ForceBug: true})
		rec := recordFailure(mod, 64, randCfg)
		if rec == nil {
			rec = recordFailure(mod, 64, pctCfg)
		}
		if rec == nil {
			t.Fatalf("%s: no failing schedule in 64 random and 64 PCT seeds", bug.Name)
		}
		check(bug.Name, mod, rec)
	}
}

// TestMinimizeWithinRecordedBound: the probe watchdog never exceeds the
// recording's own step bound. FFT's and ZSNES's light forced builds under
// a 5,000-step bound hang at it on Random seeds 0-3; given more steps they
// would end otherwise, so a watchdog past the bound makes the first probe
// miss the failure and Minimize refuse the recording. Every recording
// must minimize, and every minimized artifact must verify.
func TestMinimizeWithinRecordedBound(t *testing.T) {
	for _, name := range []string{"FFT", "ZSNES"} {
		mod := bugs.ByName(name).Program(bugs.Config{Light: true, ForceBug: true})
		for seed := int64(0); seed < 4; seed++ {
			_, rec := replay.Record(mod, interp.Config{Sched: sched.NewRandom(seed), MaxSteps: 5000}, replay.Meta{Seed: seed})
			if !rec.Fingerprint.Failed {
				t.Fatalf("%s seed %d: run completed within 5,000 steps; the test needs a failure", name, seed)
			}
			min, err := replay.Minimize(mod, rec, replay.MinimizeOptions{ProbeBudget: 512})
			if err != nil {
				t.Errorf("%s seed %d (%s): %v", name, seed, rec.Fingerprint.FailureKey(), err)
				continue
			}
			if err := replay.Verify(mod, min.Rec); err != nil {
				t.Errorf("%s seed %d: minimized artifact: %v", name, seed, err)
			}
		}
	}
}

// TestMinimizeRejectsCompletedRun pins the minimizer's precondition.
func TestMinimizeRejectsCompletedRun(t *testing.T) {
	mod := mirgen.Gen(mirgen.Config{Seed: 1})
	_, rec := replay.Record(mod, randCfg(1), replay.Meta{})
	if rec.Fingerprint.Failed {
		t.Fatal("failure-free generated program failed")
	}
	if _, err := replay.Minimize(mod, rec, replay.MinimizeOptions{}); err == nil {
		t.Fatal("Minimize accepted a recording of a completed run")
	}
}

// TestVerifyDetectsWrongModule pins the module-hash guard.
func TestVerifyDetectsWrongModule(t *testing.T) {
	modA := mirgen.Gen(mirgen.Config{Seed: 1})
	modB := mirgen.Gen(mirgen.Config{Seed: 2})
	_, rec := replay.Record(modA, randCfg(1), replay.Meta{})
	if err := replay.Verify(modB, rec); err == nil {
		t.Fatal("Verify accepted a recording against the wrong module")
	}
}

// TestModuleHashesPinned pins Module.Hash on three modules, raw and
// hardened, to the hashes of their canonical text, and checks that a
// recording and a repeated call agree: the memoized hash must stay the
// hash of exactly the printed text.
func TestModuleHashesPinned(t *testing.T) {
	light := bugs.ByName("MySQL2").Program(bugs.Config{Light: true, ForceBug: true})
	h, err := core.Harden(light, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	gen := mirgen.Gen(mirgen.Config{Seed: 7, Threads: 2, Bug: mirgen.BugAtomicity})
	for _, c := range []struct {
		name string
		mod  *mir.Module
		want string
	}{
		{"MySQL2 light", light, "06d6de4b14780a641e9f4525300c7566cf10773279657749c828751b7d15a1ed"},
		{"MySQL2 survival", h.Module, "03db3340e9414696453c188cd82057c355eda21cb2c2f73c5ee371932ec130ee"},
		{"mirgen atomicity", gen, "2133225b13ba70c8d9a8d780e22c26da3a23fd6afb632f9c8df402da81a2c6aa"},
	} {
		if got := c.mod.Hash(); got != c.want {
			t.Errorf("%s: hash %s, want %s", c.name, got, c.want)
		}
		if got := c.mod.Hash(); got != c.want {
			t.Errorf("%s: repeated hash %s, want %s", c.name, got, c.want)
		}
		if c.mod.Text() != mir.Print(c.mod) {
			t.Errorf("%s: Text differs from mir.Print", c.name)
		}
	}
	_, rec := replay.Record(gen, randCfg(1), replay.Meta{})
	if rec.ModuleHash != gen.Hash() {
		t.Errorf("recording hash %s, Module.Hash %s", rec.ModuleHash, gen.Hash())
	}
	if err := rec.CheckModule(gen); err != nil {
		t.Error(err)
	}
}

// TestModuleTextConcurrent has eight goroutines race to be the first to
// print one module, through Text, Hash, Record and CheckModule. Every
// caller must see the one stored text (the same string, not just an equal
// one), and its hash must be the SHA-256 of mir.Print.
func TestModuleTextConcurrent(t *testing.T) {
	mod := mirgen.Gen(mirgen.Config{Seed: 11, Threads: 2, Bug: mirgen.BugOrder})
	want := mir.Print(mod)
	sum := sha256.Sum256([]byte(want))
	wantHash := hex.EncodeToString(sum[:])

	const n = 8
	texts := make([]string, n)
	var wg sync.WaitGroup
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch g % 4 {
			case 0:
				texts[g] = mod.Text()
			case 1:
				if h := mod.Hash(); h != wantHash {
					t.Errorf("goroutine %d: hash %s, want %s", g, h, wantHash)
				}
				texts[g] = mod.Text()
			case 2:
				_, rec := replay.Record(mod, randCfg(int64(g)), replay.Meta{})
				if rec.ModuleHash != wantHash {
					t.Errorf("goroutine %d: recording hash %s, want %s", g, rec.ModuleHash, wantHash)
				}
				texts[g] = rec.ModuleText
			case 3:
				rec := &replay.Recording{ModuleHash: wantHash}
				if err := rec.CheckModule(mod); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
				}
				texts[g] = mod.Text()
			}
		}()
	}
	wg.Wait()
	for g, s := range texts {
		if s != want {
			t.Fatalf("goroutine %d: text differs from mir.Print", g)
		}
		if unsafe.StringData(s) != unsafe.StringData(texts[0]) {
			t.Errorf("goroutine %d saw a second copy of the text", g)
		}
	}
}

// TestRecordedModuleCollectable: recording and checking a module keeps
// its text and hash with the module, so once nothing refers to the module
// the garbage collector frees it. The run itself goes through a clone,
// because the interpreter's compiled-program cache holds every module it
// runs; the recording is of the same program either way.
func TestRecordedModuleCollectable(t *testing.T) {
	mod := mirgen.Gen(mirgen.Config{Seed: 12, Threads: 2, Bug: mirgen.BugAtomicity})
	cfg, fc := replay.CaptureFlight(mod, randCfg(3), replay.Meta{}, math.MaxInt)
	rec := fc.Finish(interp.RunModule(mod.Clone(), cfg))
	if err := rec.CheckModule(mod); err != nil {
		t.Fatal(err)
	}
	if rec.ModuleText != mod.Text() {
		t.Fatal("recording does not embed the module's text")
	}
	wp := weak.Make(mod)
	mod, fc = nil, nil
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("a recorded and checked module is still reachable after its last reference was dropped")
	}
	// The recording outlives the module and still carries the program.
	if m, err := rec.Module(); err != nil || m.Hash() != rec.ModuleHash {
		t.Fatalf("recording no longer yields its module: %v", err)
	}
}

// BenchmarkRecordTiny records LGFrontier's survival-hardened light forced
// build, the tiny run runner's BenchmarkRunJobTiny measures unrecorded, so
// the pair shows what a complete recording adds to a run of about 80
// steps.
func BenchmarkRecordTiny(b *testing.B) {
	m := bugs.ByName("LGFrontier").Program(bugs.Config{Light: true, ForceBug: true})
	h, err := core.Harden(m, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	replay.Record(h.Module, randCfg(0), replay.Meta{}) // compile and hash once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := int64(i % 1000)
		if r, rec := replay.Record(h.Module, randCfg(seed), replay.Meta{Seed: seed}); !r.Completed || rec == nil {
			b.Fatalf("seed %d: tiny run failed: %v", seed, r.Failure)
		}
	}
}

// BenchmarkReplayMinimize shrinks one recorded failing schedule of each
// of the 13 programs' light forced builds with ddmin on triage's probe
// budget. Every probe replays an edited stream under sched.SegmentReplay,
// so the benchmark measures segment replay as much as the search.
func BenchmarkReplayMinimize(b *testing.B) {
	type target struct {
		mod *mir.Module
		rec *replay.Recording
	}
	var targets []target
	for _, bug := range append(bugs.All(), bugs.Corpus()...) {
		mod := bug.Program(bugs.Config{Light: true, ForceBug: true})
		rec := recordFailure(mod, 64, randCfg)
		if rec == nil {
			rec = recordFailure(mod, 64, pctCfg)
		}
		if rec == nil {
			b.Fatalf("%s: no failing schedule in 64 random and 64 PCT seeds", bug.Name)
		}
		targets = append(targets, target{mod, rec})
	}
	opt := replay.MinimizeOptions{ProbeBudget: 512}
	b.ReportAllocs()
	b.ResetTimer()
	probes := 0
	for i := 0; i < b.N; i++ {
		for _, tg := range targets {
			min, err := replay.Minimize(tg.mod, tg.rec, opt)
			if err != nil {
				b.Fatal(err)
			}
			probes += min.Probes
		}
	}
	b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
}
