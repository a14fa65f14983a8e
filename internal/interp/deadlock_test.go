package interp

import (
	"strings"
	"testing"

	"conair/internal/mir"
	"conair/internal/sched"
)

// A two-lock inversion deadlock among workers must be reported promptly
// via the wait-for cycle even though main keeps spinning.
const partialDeadlockSrc = `
global a = 0
global b = 0
global spin = 0
func t1() {
entry:
  %pa = addrg @a
  %pb = addrg @b
  lock %pa
  sleep 50
  lock %pb
  unlock %pb
  unlock %pa
  ret
}
func t2() {
entry:
  %pa = addrg @a
  %pb = addrg @b
  lock %pb
  sleep 50
  lock %pa
  unlock %pa
  unlock %pb
  ret
}
func main() {
entry:
  %x = spawn t1()
  %y = spawn t2()
  %i = const 0
  jmp spinloop
spinloop:
  %v = loadg @spin
  %v1 = add %v, 1
  storeg @spin, %v1
  %i1 = add %i, 1
  %i = add %i1, 0
  %c = lt %i, 1000000
  br %c, spinloop, out
out:
  join %x
  join %y
  ret
}`

func TestWaitForCycleDetectedWhileOthersRun(t *testing.T) {
	m := mir.MustParse(partialDeadlockSrc)
	r := RunModule(m, Config{Sched: sched.NewRandom(1), MaxSteps: 2_000_000})
	if r.Completed || r.Failure.Kind != mir.FailHang {
		t.Fatalf("expected hang, got %+v", r)
	}
	if !strings.Contains(r.Failure.Msg, "wait-for cycle") {
		t.Errorf("expected cycle detection, got %q", r.Failure.Msg)
	}
	// Detection must happen long before the spinner finishes, let alone
	// the step limit.
	if r.Failure.Step > 10_000 {
		t.Errorf("cycle detected only at step %d", r.Failure.Step)
	}
}

func TestTimedEdgeBreaksCycleReport(t *testing.T) {
	// The same inversion, but one side acquires with a timeout: the cycle
	// is self-resolving, must not be reported, and the run completes once
	// the timed side gives up and releases.
	src := `
global a = 0
global b = 0
func t1() {
entry:
  %pa = addrg @a
  %pb = addrg @b
  lock %pa
  sleep 50
  lock %pb
  unlock %pb
  unlock %pa
  ret
}
func t2() {
entry:
  %pa = addrg @a
  %pb = addrg @b
  lock %pb
  sleep 50
  %got = timedlock %pa, 200
  unlock %pb
  ret
}
func main() {
entry:
  %x = spawn t1()
  %y = spawn t2()
  join %x
  join %y
  ret 0
}`
	m := mir.MustParse(src)
	r := RunModule(m, Config{Sched: sched.NewRandom(1), MaxSteps: 100_000})
	if !r.Completed {
		t.Fatalf("timed edge should resolve the deadlock: %+v", r.Failure)
	}
}

func TestThreeThreadCycle(t *testing.T) {
	src := `
global a = 0
global b = 0
global c = 0
func w(%first, %second) {
entry:
  lock %first
  sleep 60
  lock %second
  unlock %second
  unlock %first
  ret
}
func main() {
entry:
  %pa = addrg @a
  %pb = addrg @b
  %pc = addrg @c
  %x = spawn w(%pa, %pb)
  %y = spawn w(%pb, %pc)
  %z = spawn w(%pc, %pa)
  join %x
  join %y
  join %z
  ret
}`
	m := mir.MustParse(src)
	r := RunModule(m, Config{Sched: sched.NewRandom(1), MaxSteps: 1_000_000})
	if r.Completed || r.Failure.Kind != mir.FailHang {
		t.Fatalf("expected three-way deadlock, got %+v", r)
	}
	if !strings.Contains(r.Failure.Msg, "wait-for cycle") {
		t.Errorf("expected cycle report, got %q", r.Failure.Msg)
	}
}
