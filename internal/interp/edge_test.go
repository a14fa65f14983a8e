package interp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"conair/internal/mir"
	"conair/internal/sched"
)

func TestThreadLimitEnforced(t *testing.T) {
	src := `
func w() {
entry:
  sleep 100000
  ret
}
func main() {
entry:
  %i = const 0
  jmp loop
loop:
  %t = spawn w()
  %i2 = add %i, 1
  %i = add %i2, 0
  %c = lt %i, 1000
  br %c, loop, out
out:
  ret
}`
	m := mir.MustParse(src)
	r := RunModule(m, Config{Sched: sched.NewRandom(1)})
	if r.Completed || r.Failure == nil {
		t.Fatal("expected thread-limit failure")
	}
	if !strings.Contains(r.Failure.Msg, "thread limit") {
		t.Errorf("failure = %q", r.Failure.Msg)
	}
	if r.Stats.ThreadsSpawned != maxThreads {
		t.Errorf("%d threads spawned before the limit, want %d", r.Stats.ThreadsSpawned, maxThreads)
	}
}

func TestOutputNotCollectedByDefault(t *testing.T) {
	m := mir.MustParse(`
func main() {
entry:
  output "x", 1
  ret
}`)
	r := RunModule(m, Config{Sched: sched.NewRandom(1)})
	if !r.Completed || len(r.Output) != 0 {
		t.Fatalf("output should not be collected: %+v", r.Output)
	}
}

func TestJoinOnFinishedAndInvalidThread(t *testing.T) {
	src := `
func w() {
entry:
  ret
}
func main() {
entry:
  %t = spawn w()
  sleep 50
  join %t
  %bogus = const 999
  join %bogus
  ret 7
}`
	m := mir.MustParse(src)
	r := RunModule(m, Config{Sched: sched.NewRandom(1)})
	if !r.Completed || r.ExitCode != 7 {
		t.Fatalf("join semantics: %+v", r)
	}
}

func TestSelfDeadlockOnPlainLock(t *testing.T) {
	m := mir.MustParse(`
global L = 0
func main() {
entry:
  %p = addrg @L
  lock %p
  lock %p
  ret
}`)
	r := RunModule(m, Config{Sched: sched.NewRandom(1)})
	if r.Completed || r.Failure.Kind != mir.FailHang {
		t.Fatalf("self-deadlock: %+v", r)
	}
	if !strings.Contains(r.Failure.Msg, "self-deadlock") {
		t.Errorf("msg = %q", r.Failure.Msg)
	}
}

func TestSelfTimedLockTimesOutImmediately(t *testing.T) {
	m := mir.MustParse(`
global L = 0
func main() {
entry:
  %p = addrg @L
  lock %p
  %got = timedlock %p, 100
  unlock %p
  ret %got
}`)
	r := RunModule(m, Config{Sched: sched.NewRandom(1)})
	if !r.Completed || r.ExitCode != 0 {
		t.Fatalf("self timed-lock should report timeout: %+v", r)
	}
	if r.Stats.Steps > 50 {
		t.Errorf("self timed-lock should not wait out the timeout (%d steps)", r.Stats.Steps)
	}
}

func TestUnlockNotHeldIsIgnored(t *testing.T) {
	m := mir.MustParse(`
global L = 0
func other() {
entry:
  %p = addrg @L
  lock %p
  sleep 100
  unlock %p
  ret
}
func main() {
entry:
  %t = spawn other()
  sleep 20
  %p = addrg @L
  unlock %p
  join %t
  ret 3
}`)
	r := RunModule(m, Config{Sched: sched.NewRandom(1)})
	if !r.Completed || r.ExitCode != 3 {
		t.Fatalf("foreign unlock must be a no-op: %+v", r)
	}
}

func TestAllocSizeFromRegisterAndZero(t *testing.T) {
	m := mir.MustParse(`
func main() {
entry:
  %n = const 0
  %p = alloc %n
  store %p, 5
  %v = load %p
  ret %v
}`)
	r := RunModule(m, Config{Sched: sched.NewRandom(1)})
	if !r.Completed || r.ExitCode != 5 {
		t.Fatalf("zero-size alloc rounds up to one word: %+v", r)
	}
}

func TestSleepZeroAndNegativeAreNoops(t *testing.T) {
	m := mir.MustParse(`
func main() {
entry:
  %z = const 0
  sleep %z
  %n = const -5
  sleep %n
  ret 1
}`)
	r := RunModule(m, Config{Sched: sched.NewRandom(1)})
	if !r.Completed || r.ExitCode != 1 {
		t.Fatalf("degenerate sleeps: %+v", r)
	}
	if r.Stats.Steps > 10 {
		t.Errorf("sleeps should not consume time: %d steps", r.Stats.Steps)
	}
}

func TestCallIsolatesRegisters(t *testing.T) {
	// Callee register writes must not leak into the caller's registers,
	// and arguments are copied by value.
	m := mir.MustParse(`
func clobber(%x) {
entry:
  %x = add %x, 100
  %y = const 999
  ret %y
}
func main() {
entry:
  %x = const 1
  %y = const 2
  %r = call clobber(%x)
  %sum = add %x, %y
  %tot = add %sum, %r
  ret %tot
}`)
	r := RunModule(m, Config{Sched: sched.NewRandom(1)})
	if !r.Completed || r.ExitCode != 1002 {
		t.Fatalf("register isolation: got %d, want 1002", r.ExitCode)
	}
}

func TestSpawnArgumentsCopied(t *testing.T) {
	m := mir.MustParse(`
global out = 0
func w(%a, %b) {
entry:
  %s = mul %a, %b
  storeg @out, %s
  ret
}
func main() {
entry:
  %x = const 6
  %t = spawn w(%x, 7)
  %x = const 0
  join %t
  %v = loadg @out
  ret %v
}`)
	r := RunModule(m, Config{Sched: sched.NewRandom(1)})
	if !r.Completed || r.ExitCode != 42 {
		t.Fatalf("spawn args: got %d, want 42", r.ExitCode)
	}
}

func TestRollbackRestoresRegisterImage(t *testing.T) {
	// Registers mutated inside the region must be restored by the
	// rollback: the second attempt must observe the checkpointed values,
	// not the first attempt's leftovers.
	m := mir.MustParse(`
global flag = 0
func waiter() {
entry:
  %acc = const 10
  checkpoint 1
  %acc = add %acc, 1
  %v = loadg @flag
  br %v, pass, recover
recover:
  rollback 1, 1000000
  fail assert, "never set"
pass:
  ret %acc
}
func main() {
entry:
  %t = spawn waiter()
  sleep 60
  storeg @flag, 1
  join %t
  ret
}`)
	vm := New(m, Config{Sched: sched.NewRandom(1)})
	r := vm.Run()
	if !r.Completed {
		t.Fatalf("run failed: %v", r.Failure)
	}
	// acc must be 11 on every attempt (10 restored + 1), never 12+.
	// waiter's return value is discarded; rerun single-threadedly to
	// observe it via the thread result: instead check via rollbacks>0 and
	// a variant returning through a global.
	if r.Stats.Rollbacks == 0 {
		t.Fatal("expected rollbacks")
	}

	m2 := mir.MustParse(`
global flag = 0
global result = 0
func waiter() {
entry:
  %acc = const 10
  checkpoint 1
  %acc = add %acc, 1
  %v = loadg @flag
  br %v, pass, recover
recover:
  rollback 1, 1000000
  fail assert, "never set"
pass:
  storeg @result, %acc
  ret
}
func main() {
entry:
  %t = spawn waiter()
  sleep 60
  storeg @flag, 1
  join %t
  %r = loadg @result
  ret %r
}`)
	r2 := RunModule(m2, Config{Sched: sched.NewRandom(1)})
	if !r2.Completed || r2.ExitCode != 11 {
		t.Fatalf("register image not restored: acc = %d, want 11", r2.ExitCode)
	}
}

func TestRoundRobinAndScriptedEndToEnd(t *testing.T) {
	src := `
global c = 0
func w() {
entry:
  %v = loadg @c
  %v1 = add %v, 1
  storeg @c, %v1
  ret
}
func main() {
entry:
  %a = spawn w()
  %b = spawn w()
  join %a
  join %b
  %v = loadg @c
  ret %v
}`
	m := mir.MustParse(src)
	for _, s := range []sched.Scheduler{
		sched.NewRoundRobin(3, 1),
		sched.NewScripted([]int{0, 0, 1, 2, 1, 2}, 1),
		sched.NewPCT(1, 3, 100),
	} {
		r := RunModule(m, Config{Sched: s})
		if !r.Completed {
			t.Fatalf("%s: %v", s.Name(), r.Failure)
		}
	}
}

// TestRollbackSiteSlots runs one program under three numberings of its
// two rollback sites: dense ids, which index the per-thread retry and
// episode tables directly, and a negative and a huge id, which go through
// the program's site map. Retries, episodes and the failure must agree.
func TestRollbackSiteSlots(t *testing.T) {
	const src = `
global cnt = 0
func main() {
entry:
  checkpoint 1
  %c = loadg @cnt
  %c2 = add %c, 1
  storeg @cnt, %c2
  %ok = ge %c2, 3
  br %ok, second, recover !site SITEA
recover:
  rollback SITEA, 10
  fail assert, "first"
second:
  checkpoint 2
  %z = const 0
  br %z, done, again !site SITEB
again:
  rollback SITEB, 2
  fail assert, "second" !site SITEB
done:
  ret 0
}`
	for _, ids := range [][2]int32{{1, 2}, {-7, 1 << 20}, {3, 70000}} {
		text := strings.NewReplacer("SITEA", fmt.Sprint(ids[0]), "SITEB", fmt.Sprint(ids[1])).Replace(src)
		m := mir.MustParse(text)
		p := Compile(m)
		if dense := ids[0] >= 0 && ids[1] < maxDenseSite; dense != (p.sparseSites == nil) {
			t.Fatalf("sites %v: dense numbering %v, sparse map %v", ids, dense, p.sparseSites)
		}
		if p.siteSlot(ids[0]) < 0 || p.siteSlot(ids[1]) < 0 || p.siteSlot(ids[0]) == p.siteSlot(ids[1]) {
			t.Fatalf("sites %v: slots %d and %d", ids, p.siteSlot(ids[0]), p.siteSlot(ids[1]))
		}
		r := RunModule(m, Config{Sched: sched.NewRandom(1)})
		want := []Episode{
			{Site: int(ids[0]), Thread: 0, Start: 6, End: 17, Retries: 2, Recovered: true},
			{Site: int(ids[1]), Thread: 0, Start: 21, End: -1, Retries: 2},
		}
		if ids[0] < 0 {
			// Only a positive site's passing check closes its episode.
			want[0].End, want[0].Recovered = -1, false
		}
		if r.Stats.Rollbacks != 4 || !reflect.DeepEqual(r.Stats.Episodes, want) {
			t.Fatalf("sites %v: rollbacks %d, episodes %+v, want 4 and %+v", ids, r.Stats.Rollbacks, r.Stats.Episodes, want)
		}
		if r.Failure == nil || r.Failure.Site != int(ids[1]) {
			t.Fatalf("sites %v: failure %v, want the second site's fail", ids, r.Failure)
		}
	}
}
