package interp

import (
	"slices"

	"conair/internal/mir"
)

// This file exposes the stepping and whole-state snapshot hooks used by
// the traditional rollback-recovery baselines (internal/baseline). ConAir
// itself never needs them — that is the point of the comparison: ConAir's
// checkpoint is a register image, the baseline's is the entire program
// state.

// StepOnce executes one scheduling decision plus one instruction. It
// returns false once the run has ended (completion, failure, or nothing
// left to schedule). Mixing StepOnce with Run is not supported.
//
// Single-stepping runs the same compiled dispatch loop as Run, but an
// eligible instruction runs alone (execLocal with a budget of one) instead
// of opening a superblock quantum, so exactly one instruction retires per
// call.
func (vm *VM) StepOnce() bool {
	return vm.runLoop(vm.cfg.maxSteps(), true)
}

// Finish builds the result after StepOnce-driven execution.
func (vm *VM) Finish() *Result { return vm.result() }

// Steps reports instructions executed so far.
func (vm *VM) Steps() int64 { return vm.step }

// CurrentFailure returns the failure detected so far, or nil.
func (vm *VM) CurrentFailure() *Failure { return vm.failure }

// AdvanceSteps charges extra virtual time to the run — the baselines use
// it to model checkpointing cost (copying W words of state is not free on
// any real system; the baseline charges it at a configurable rate).
func (vm *VM) AdvanceSteps(n int64) {
	if n > 0 {
		vm.step += n
		vm.gen++ // the stay budget counts one step per pick
	}
}

// StateWords reports the current size of the mutable program state in
// words (globals + live heap + thread frames): what a whole-program
// checkpoint must copy.
func (vm *VM) StateWords() int64 {
	n := int64(len(vm.mem.globals))
	for i := range vm.mem.blocks {
		if !vm.mem.blocks[i].freed {
			n += int64(len(vm.mem.blocks[i].data))
		}
	}
	for _, t := range vm.threads {
		for fi := range t.frames {
			n += int64(len(t.frames[fi].regs) + len(t.frames[fi].slots))
		}
	}
	return n
}

// PerturbThread forces thread tid to sleep for delay steps — the
// baseline's stand-in for Rx-style environment/timing perturbation during
// reexecution, so the restored run takes a different interleaving. It
// reports whether the perturbation was applied; a thread that does not
// exist yet (the rollback may predate its spawn) or is not runnable cannot
// be delayed, and the caller retries later.
func (vm *VM) PerturbThread(tid int, delay int64) bool {
	t := vm.threadByID(tid)
	if t == nil || delay <= 0 {
		return false
	}
	// Only a runnable thread can be put to sleep directly; a blocked
	// thread is already delayed by whatever blocks it.
	if t.status == statusRunnable {
		vm.setStatus(t, statusSleeping)
		t.wakeAt = vm.step + delay
		return true
	}
	return false
}

// NumThreads reports how many threads have ever been spawned.
func (vm *VM) NumThreads() int { return len(vm.threads) }

// Snapshot is a deep copy of the whole mutable program state.
type Snapshot struct {
	step    int64
	mem     *memory
	lcks    *locks
	conds   *condvars
	chans   *channels
	threads []*thread
	nextTID int
	done    bool
	exit    mir.Word
	nOut    int
	// Words is the state size that was copied, for cost accounting.
	Words int64
}

// TakeSnapshot deep-copies the program state (memory, locks, threads).
func (vm *VM) TakeSnapshot() *Snapshot {
	vm.settle()
	s := &Snapshot{
		step:    vm.step,
		mem:     vm.mem.snapshot(),
		lcks:    vm.lcks.snapshot(),
		conds:   vm.conds.snapshot(),
		chans:   vm.chans.snapshot(),
		nextTID: vm.nextTID,
		done:    vm.done,
		exit:    vm.exit,
		nOut:    len(vm.output),
	}
	s.threads = make([]*thread, len(vm.threads))
	for i, t := range vm.threads {
		s.threads[i] = cloneThread(t)
	}
	s.Words = vm.StateWords()
	return s
}

// RestoreSnapshot rewinds the program to the snapshot. The failure flag is
// cleared (that is what the rollback is for); output produced after the
// snapshot is discarded, modeling the baseline's required output
// buffering. Virtual time is NOT rewound: recovery costs time.
func (vm *VM) RestoreSnapshot(s *Snapshot) {
	vm.settle()
	vm.mem = s.mem.snapshot()
	vm.lcks = s.lcks.snapshot()
	vm.conds = s.conds.snapshot()
	vm.chans = s.chans.snapshot()
	vm.threads = make([]*thread, len(s.threads))
	for i, t := range s.threads {
		vm.threads[i] = cloneThread(t)
	}
	vm.nextTID = s.nextTID
	vm.done = s.done
	vm.exit = s.exit
	vm.failure = nil
	vm.rebuildLive()
	if len(vm.output) > s.nOut {
		vm.output = vm.output[:s.nOut]
	}
	// Blocked/sleeping deadlines recorded in absolute steps would lie in
	// the past after a long recovery; clamp them to now.
	for _, t := range vm.threads {
		if t.status == statusSleeping && t.wakeAt < vm.step {
			t.wakeAt = vm.step
		}
		switch t.status {
		case statusBlockedLock, statusBlockedCond, statusBlockedSend, statusBlockedRecv:
			if t.blockedSince > vm.step {
				t.blockedSince = vm.step
			}
		}
	}
}

func cloneThread(t *thread) *thread {
	c := *t
	c.frames = make([]frame, len(t.frames))
	for i, fr := range t.frames {
		nf := fr
		nf.regs = append([]mir.Word(nil), fr.regs...)
		nf.slots = append([]mir.Word(nil), fr.slots...)
		c.frames[i] = nf
	}
	if t.jmp != nil {
		j := *t.jmp
		j.regs = append([]mir.Word(nil), t.jmp.regs...)
		c.jmp = &j
	}
	c.comp = append([]compEntry(nil), t.comp...)
	c.retries = slices.Clone(t.retries)
	c.episodes = slices.Clone(t.episodes)
	for i, e := range c.episodes {
		if e != nil {
			cp := *e
			c.episodes[i] = &cp
		}
	}
	return &c
}
