package bugs

import (
	"testing"

	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/sched"
)

// An UNFORCED check-then-use race (no injected sleeps): whether it
// manifests depends entirely on the scheduler landing the nulling write
// inside the two-instruction window.
const unforcedRace = `
global ptr = 0
func initp() {
entry:
  %h = alloc 2
  store %h, 7
  storeg @ptr, %h
  ret
}
func user() {
entry:
  %p1 = loadg @ptr
  br %p1, use, out
use:
  %p2 = loadg @ptr
  %v = load %p2
  storeg @ptr, %p2
  jmp out
out:
  ret
}
func nuller() {
entry:
  storeg @ptr, 0
  %i = const 0
  jmp work
work:
  %i2 = add %i, 1
  %i = add %i2, 0
  %c = lt %i, 25
  br %c, work, reinit
reinit:
  %h2 = alloc 2
  store %h2, 9
  storeg @ptr, %h2
  ret
}
func main() {
entry:
  call initp()
  %a = spawn user()
  %b = spawn nuller()
  join %a
  join %b
  ret 0
}
`

// PCT-style priority scheduling must expose the race within a modest seed
// budget, and ConAir-hardened code must survive every one of those
// adversarial schedules.
func TestPCTFindsUnforcedRaceAndHardenedSurvivesIt(t *testing.T) {
	m := mir.MustParse(unforcedRace)

	found := 0
	for seed := int64(0); seed < 200; seed++ {
		r := interp.RunModule(m, interp.Config{
			Sched: sched.NewSearchPCT(seed), MaxSteps: 100_000,
		})
		if !r.Completed {
			if r.Failure.Kind != mir.FailSegfault {
				t.Fatalf("seed %d: unexpected failure %v", seed, r.Failure)
			}
			found++
		}
	}
	if found == 0 {
		t.Fatal("PCT never exposed the race; the bug-finding scheduler is broken")
	}
	t.Logf("PCT exposed the race in %d/200 seeds", found)

	h, err := core.Harden(m, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 200; seed++ {
		r := interp.RunModule(h.Module, interp.Config{
			Sched: sched.NewSearchPCT(seed), MaxSteps: 1_000_000,
		})
		if !r.Completed {
			t.Fatalf("seed %d: hardened program failed under adversarial schedule: %v",
				seed, r.Failure)
		}
	}
}

// TestSurvivalRecoversUnderPCT runs the forced survival build of every
// paper and corpus program under the search PCT policy, seeds 0–199. A
// rollback yields, so the strict-priority schedule lets the thread whose
// write passes the failing check run, and every run completes. Without
// that rule the top-priority thread retries until the MaxRetry bound, or,
// at a deadlock site, until the step limit: 119 of 200 seeds failed for
// six of the programs.
func TestSurvivalRecoversUnderPCT(t *testing.T) {
	for _, b := range append(All(), Corpus()...) {
		m := b.Program(Config{Light: true, ForceBug: true})
		h, err := core.Harden(m, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: harden: %v", b.Name, err)
		}
		rollbacks := int64(0)
		for seed := int64(0); seed < 200; seed++ {
			r := interp.RunModule(h.Module, interp.Config{
				Sched: sched.NewSearchPCT(seed), MaxSteps: 20_000_000,
			})
			if !r.Completed {
				t.Fatalf("%s: PCT seed %d did not recover: %v", b.Name, seed, r.Failure)
			}
			rollbacks += r.Stats.Rollbacks
		}
		t.Logf("%s: 200/200 recovered, %d rollbacks", b.Name, rollbacks)
	}
}
