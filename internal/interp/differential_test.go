package interp_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/mirgen"
	"conair/internal/sched"
)

// The differential tests pin the ahead-of-time compiled execution path
// (interp.Run) against the reference interpreter (interp.RunReference),
// which still walks the original mir.Instr stream through eval(). Any
// divergence in Results — completion, failure kind/position/message, exit
// code, outputs, step counts, checkpoint/rollback stats, recovery
// episodes — is a compiler bug.

const diffMaxSteps = 2_000_000

func diffCompare(t *testing.T, name string, m *mir.Module, seeds []int64) {
	t.Helper()
	for _, seed := range seeds {
		cfgA := interp.Config{
			Sched: sched.NewRandom(seed), MaxSteps: diffMaxSteps, CollectOutput: true,
		}
		cfgB := interp.Config{
			Sched: sched.NewRandom(seed), MaxSteps: diffMaxSteps, CollectOutput: true,
		}
		got := interp.RunModule(m, cfgA)
		want := interp.RunReference(m, cfgB)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s seed %d: compiled and reference results differ\ncompiled:  %+v\nreference: %+v",
				name, seed, got, want)
			if got.Failure != nil || want.Failure != nil {
				t.Errorf("failures: compiled=%+v reference=%+v", got.Failure, want.Failure)
			}
			return
		}
	}
}

// testdataPrograms globs every checked-in .mir program: the top-level
// exemplars and the real-bug corpus models (which exercise the condvar,
// channel and cas instructions on realistic programs).
func testdataPrograms(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, pattern := range []string{"../../testdata/*.mir", "../bugs/testdata/*.mir"} {
		fs, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, fs...)
	}
	if len(files) == 0 {
		t.Fatal("no testdata programs found")
	}
	return files
}

// TestDifferentialTestdata runs every checked-in .mir program — raw and
// hardened — under both interpreters across several seeds.
func TestDifferentialTestdata(t *testing.T) {
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
		diffCompare(t, name, m, seeds)

		h, err := core.Harden(m, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: harden: %v", path, err)
		}
		diffCompare(t, name+"+hardened", h.Module, seeds)
	}
}

// TestDifferentialMirgen sweeps 50 generated programs — cycling thread
// counts and all bug templates, raw and hardened — under both
// interpreters. This is the broad-coverage leg: generated programs hit
// operand shapes, checkpoint/rollback, lock and thread
// interleavings that the handwritten programs do not.
func TestDifferentialMirgen(t *testing.T) {
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
		diffCompare(t, name, m, seeds)

		if i%5 == 0 { // hardened leg on a subset: Harden dominates runtime
			h, err := core.Harden(m, core.DefaultOptions())
			if err != nil {
				t.Fatalf("seed %d: harden: %v", i, err)
			}
			diffCompare(t, name+"+hardened", h.Module, seeds)
		}
	}
}
