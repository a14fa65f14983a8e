package interp

import "conair/internal/mir"

// threadStatus enumerates thread scheduler states.
type threadStatus uint8

const (
	statusRunnable threadStatus = iota
	statusBlockedLock
	statusBlockedJoin
	statusSleeping
	// statusBlockedCond: parked on a condition variable, waiting for a
	// signal/broadcast (or the timed wait's timeout). A signal moves the
	// thread to statusBlockedLock on the wait's mutex — the re-acquire
	// phase — so the ordinary lock wake machinery applies.
	statusBlockedCond
	// statusBlockedSend / statusBlockedRecv: parked on a full (resp.
	// empty) bounded channel; woken by pickThread when the operation may
	// complete, then the instruction re-executes like a blocked lock.
	statusBlockedSend
	statusBlockedRecv
	statusDone
)

// frame is one activation record: the register image plus stack slots and
// the program counter within a function. pc is a flat index into the
// function's compiled code stream (see compile.go); pc 0 is the first
// instruction of the entry block, so the zero value starts at the top.
type frame struct {
	fn     int
	regs   []mir.Word
	slots  []mir.Word
	pc     int
	retDst int // destination register in the caller, -1 for none
}

// jmpbuf is the thread-local jump buffer written by checkpoint and read by
// rollback — the stand-in for the paper's setjmp register image. It records
// which frame the checkpoint executed in (so inter-procedural rollback can
// unwind callee frames), the flat program counter just past the checkpoint,
// and a copy of the frame's virtual registers.
type jmpbuf struct {
	frameDepth int
	pc         int
	regs       []mir.Word
	regionCtr  int64
}

// compKind tags compensation-log entries (paper §4.1).
type compKind uint8

const (
	compAlloc compKind = iota
	compLock
)

// compEntry records a resource acquired inside a reexecution region so a
// rollback can release it: heap allocations are freed, locks unlocked.
type compEntry struct {
	kind compKind
	addr mir.Word
	ctr  int64 // region counter at acquisition
}

// thread is one virtual thread.
type thread struct {
	id     int
	status threadStatus
	frames []frame
	result mir.Word

	// Blocking state.
	blockAddr    mir.Word // lock/condvar/channel address while blocked
	blockedSince int64
	blockTimeout int64 // steps; 0 = wait forever (plain lock)
	blockDst     int   // destination register for timedlock result
	joinTarget   int
	wakeAt       int64

	// Condition-variable wait state machine (see the cWait dispatch case).
	// condArmed: parked in the condvar's waiter queue. condSignaled: a
	// signal was consumed, the wait is re-acquiring its mutex; once set,
	// the wait can no longer time out — the no-double-consume half of the
	// wait-rollback rule (mir/class.go).
	condArmed    bool
	condSignaled bool
	waitMutex    mir.Word // mutex to re-acquire when the wait completes

	// ConAir recovery state. retries and episodes are indexed by the
	// failure site's slot (Program.siteSlot) and grow at the first
	// rollback of a site.
	jmp       *jmpbuf
	regionCtr int64
	retries   []int64 // rollbacks per site
	comp      []compEntry

	// Open recovery episodes, at most one per site.
	episodes []*Episode
}

func (t *thread) top() *frame { return &t.frames[len(t.frames)-1] }

func (t *thread) retryCount(slot int) int64 {
	if slot >= len(t.retries) {
		return 0
	}
	return t.retries[slot]
}

func (t *thread) bumpRetry(slot int) {
	if slot >= len(t.retries) {
		t.retries = append(t.retries, make([]int64, slot+1-len(t.retries))...)
	}
	t.retries[slot]++
}

// pushComp records a compensable acquisition under the current region
// counter. Entries from older regions are dropped first, mirroring the
// paper's "clean the vector if the counter changed" bookkeeping.
func (t *thread) pushComp(kind compKind, addr mir.Word) {
	if len(t.comp) > 0 && t.comp[0].ctr != t.regionCtr {
		t.comp = t.comp[:0]
	}
	t.comp = append(t.comp, compEntry{kind: kind, addr: addr, ctr: t.regionCtr})
}

// takeComp removes and returns the entries recorded under the current
// region counter (the resources a rollback must release).
func (t *thread) takeComp() []compEntry {
	if len(t.comp) == 0 || t.comp[0].ctr != t.regionCtr {
		t.comp = t.comp[:0]
		return nil
	}
	out := t.comp
	t.comp = nil
	return out
}

// beginEpisode opens (or continues) the recovery episode for site, whose
// slot is slot, at step.
func (t *thread) beginEpisode(slot, site int, step int64) *Episode {
	if slot >= len(t.episodes) {
		t.episodes = append(t.episodes, make([]*Episode, slot+1-len(t.episodes))...)
	}
	e := t.episodes[slot]
	if e == nil {
		e = &Episode{Site: site, Thread: t.id, Start: step, End: -1}
		t.episodes[slot] = e
	}
	e.Retries++
	return e
}

// endEpisode closes the open episode in slot, if any, marking recovery.
// A negative slot (a site no rollback carries) never has one.
func (t *thread) endEpisode(slot int, step int64) *Episode {
	if slot < 0 || slot >= len(t.episodes) || t.episodes[slot] == nil {
		return nil
	}
	e := t.episodes[slot]
	t.episodes[slot] = nil
	e.End = step
	e.Recovered = true
	return e
}
