package mirgen

import (
	"testing"

	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/sched"
	"conair/internal/transform"
)

// runPCT executes m under a PCT schedule, the searcher used to manifest
// the probabilistic bug templates.
func runPCT(m *mir.Module, seed int64) *interp.Result {
	return interp.RunModule(m, interp.Config{
		Sched: sched.NewPCT(seed, 3, 64), MaxSteps: 2_000_000, CollectOutput: true,
	})
}

func TestBugTemplatesWellFormedAndLabeled(t *testing.T) {
	want := map[BugKind]BugInfo{
		BugOrder:           {Kind: BugOrder, Global: "bug_flag", ThreadFns: [2]string{"bugreader", "bugwriter"}},
		BugAtomicity:       {Kind: BugAtomicity, Global: "bug_val", ThreadFns: [2]string{"bugchecker", "bugmutator"}},
		BugLockInversion:   {Kind: BugLockInversion, LockA: "bug_lka", LockB: "bug_lkb", ThreadFns: [2]string{"bugleft", "bugright"}},
		BugLostSignal:      {Kind: BugLostSignal, Global: "bug_ready", ThreadFns: [2]string{"bugwaiter", "bugsignaler"}},
		BugMissedBroadcast: {Kind: BugMissedBroadcast, Global: "bug_stage", ThreadFns: [2]string{"bugwaiters", "bugcaster"}},
		BugChannelDeadlock: {Kind: BugChannelDeadlock, Global: "bug_stop", ThreadFns: [2]string{"bugsender", "bugreceiver"}},
		BugCASABA:          {Kind: BugCASABA, Global: "bug_acc", ThreadFns: [2]string{"bugcaschecker", "bugcasmutator"}},
	}
	for kind, wi := range want {
		for seed := int64(0); seed < 20; seed++ {
			m, info := GenWithInfo(Config{Seed: seed, Bug: kind})
			if err := mir.Verify(m); err != nil {
				t.Fatalf("%v seed %d: %v", kind, seed, err)
			}
			if info == nil || *info != wi {
				t.Fatalf("%v seed %d: info = %+v, want %+v", kind, seed, info, wi)
			}
			if mir.Print(Gen(Config{Seed: seed, Bug: kind})) != mir.Print(m) {
				t.Fatalf("%v seed %d: generation not deterministic", kind, seed)
			}
			for _, fn := range info.ThreadFns {
				if m.FuncIndex(fn) < 0 {
					t.Fatalf("%v seed %d: missing thread fn %s", kind, seed, fn)
				}
			}
		}
	}
}

// InjectBug must keep selecting the order-violation template so existing
// configs generate byte-identical programs.
func TestInjectBugAliasesBugOrder(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		a := mir.Print(Gen(Config{Seed: seed, InjectBug: true}))
		b := mir.Print(Gen(Config{Seed: seed, Bug: BugOrder}))
		if a != b {
			t.Fatalf("seed %d: InjectBug and BugOrder diverge", seed)
		}
	}
}

// manifest searches PCT schedules for one that triggers the template's
// failure kind, returning the first failing seed.
func manifest(t *testing.T, m *mir.Module, kind mir.FailKind, budget int64) int64 {
	t.Helper()
	for s := int64(0); s < budget; s++ {
		r := runPCT(m, s)
		if r.Failure != nil {
			if r.Failure.Kind != kind {
				t.Fatalf("schedule %d: failed with %v, want %v", s, r.Failure.Kind, kind)
			}
			return s
		}
	}
	t.Fatalf("no PCT schedule in %d manifested a %v failure", budget, kind)
	return -1
}

func TestBugAtomicityManifestsAndRecovers(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		m := Gen(Config{Seed: seed, Bug: BugAtomicity})
		manifest(t, m, mir.FailAssert, 200)

		h, err := core.Harden(m, core.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := transform.CheckInvariants(h.Module, h.Report.Analysis); err != nil {
			t.Fatalf("seed %d: invariants: %v", seed, err)
		}
		for s := int64(0); s < 50; s++ {
			r := runPCT(h.Module, s)
			if !r.Completed {
				t.Fatalf("seed %d/%d: hardened atomicity bug not recovered: %v",
					seed, s, r.Failure)
			}
			if len(r.Output) != 1 || r.Output[0].Text != "bug" || r.Output[0].Value != 2 {
				t.Fatalf("seed %d/%d: observable changed: %+v", seed, s, r.Output)
			}
		}
	}
}

// TestSyncBugTemplatesManifestAndRecover covers the condvar, channel and
// cas templates: each must fail with its designed symptom on some PCT
// schedule, and its hardened twin must complete on every schedule with
// the template's post-join observable intact.
func TestSyncBugTemplatesManifestAndRecover(t *testing.T) {
	cases := []struct {
		kind    BugKind
		symptom mir.FailKind
		bugOut  int64
	}{
		{BugLostSignal, mir.FailHang, 1},
		{BugMissedBroadcast, mir.FailHang, 1},
		{BugChannelDeadlock, mir.FailHang, 1},
		{BugCASABA, mir.FailAssert, 2},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				m := Gen(Config{Seed: seed, Bug: tc.kind})
				manifest(t, m, tc.symptom, 200)

				h, err := core.Harden(m, core.DefaultOptions())
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := transform.CheckInvariants(h.Module, h.Report.Analysis); err != nil {
					t.Fatalf("seed %d: invariants: %v", seed, err)
				}
				for s := int64(0); s < 30; s++ {
					r := runPCT(h.Module, s)
					if !r.Completed {
						t.Fatalf("seed %d/%d: hardened %v not recovered: %v",
							seed, s, tc.kind, r.Failure)
					}
					if len(r.Output) != 1 || r.Output[0].Text != "bug" || r.Output[0].Value != mir.Word(tc.bugOut) {
						t.Fatalf("seed %d/%d: observable changed: %+v", seed, s, r.Output)
					}
				}
			}
		})
	}
}

func TestBugLockInversionManifestsAndRecovers(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		m := Gen(Config{Seed: seed, Bug: BugLockInversion})
		// Wait-for cycles surface as the paper's "hang" symptom (the
		// convention internal/bugs uses for its deadlock benchmarks too).
		manifest(t, m, mir.FailHang, 200)

		h, err := core.Harden(m, core.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for s := int64(0); s < 50; s++ {
			r := runPCT(h.Module, s)
			if !r.Completed {
				t.Fatalf("seed %d/%d: hardened inversion not recovered: %v",
					seed, s, r.Failure)
			}
			if len(r.Output) != 1 || r.Output[0].Text != "bug" || r.Output[0].Value != 2 {
				t.Fatalf("seed %d/%d: observable changed: %+v", seed, s, r.Output)
			}
		}
	}
}
