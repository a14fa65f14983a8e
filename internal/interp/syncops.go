package interp

import (
	"fmt"

	"conair/internal/mir"
	"conair/internal/obs"
)

// This file implements the execution semantics of the synchronization
// extensions — condition variables (wait/signal/broadcast), bounded
// channels (chsend/chrecv/chclose) and atomic compare-and-swap — shared
// verbatim by the compiled dispatch loop (interp.go) and the reference
// interpreter (ref.go), so the two execution paths cannot drift.
//
// Blocking follows the lock protocol: a thread that cannot complete stays
// at the same pc in a blocked status and re-executes the instruction when
// the scheduler picks it again; pickThread lists it as runnable only when
// the operation may complete (or a timeout expired). Each helper returns
// whether the pc should advance — false means the instruction is either
// still blocked or the run just failed.

// execWait executes one step of a wait instruction. The wait's phases are
// tracked on the thread (condArmed/condSignaled):
//
//  1. arm — release the mutex, enter the condvar's FIFO waiter queue and
//     park (statusBlockedCond). Timed waits record the deadline.
//  2. signalled — execSignal moved the thread to statusBlockedLock on
//     waitMutex with the timeout disabled: once a signal is consumed the
//     wait can no longer time out, so a timed out-then-rolled-back wait
//     can never have swallowed a signal. Re-executions acquire the mutex
//     when free; success writes 1 (timed form) and completes the wait.
//  3. timeout — timed form, still armed past the deadline: leave the
//     waiter queue and return 0 with the mutex deliberately LEFT
//     RELEASED. The hardened recovery path rolls back to a checkpoint
//     planted before the (compensated) mutex acquisition and re-executes
//     lock + predicate check + wait from scratch — the wait re-arms (see
//     the wait-rollback rule on mir.Classify).
func (vm *VM) execWait(t *thread, fr *frame, cvAddr, mtxAddr mir.Word, timeout int64, dst, site int, pos mir.Pos) bool {
	switch {
	case t.condSignaled:
		// Phase 2: re-acquire the wait's mutex.
		mu := vm.lcks.get(t.waitMutex)
		if mu.held {
			return false // still contended; pickThread re-wakes us
		}
		vm.acquireLock(mu, t.id)
		t.condSignaled = false
		vm.setStatus(t, statusRunnable)
		if t.jmp != nil {
			t.pushComp(compLock, t.waitMutex)
		}
		if vm.sink != nil {
			vm.sink.Record(obs.Event{
				Step: vm.step, Kind: obs.KindLockAcquire,
				TID: int32(t.id), Site: int32(site), Arg: int64(t.waitMutex),
			})
		}
		if vm.san != nil {
			vm.san.LockAcquire(t.id, t.waitMutex, timeout > 0, pos)
			vm.san.CondWake(t.id, cvAddr, pos)
		}
		if dst >= 0 {
			fr.regs[dst] = 1
		}
		if site > 0 {
			vm.closeEpisode(t, site)
		}
		return true
	case t.condArmed:
		// Phase 3: still parked, so the only way to be scheduled is an
		// expired timed wait (pickThread wakes armed waiters on deadline
		// only). Give up without re-acquiring the mutex.
		vm.conds.get(cvAddr).remove(t.id)
		t.condArmed = false
		vm.setStatus(t, statusRunnable)
		if dst >= 0 {
			fr.regs[dst] = 0
		}
		if vm.sink != nil {
			vm.sink.Record(obs.Event{
				Step: vm.step, Kind: obs.KindLockTimeout,
				TID: int32(t.id), Site: int32(site), Arg: int64(cvAddr),
			})
		}
		return true
	default:
		// Phase 1: arm. Release the mutex — waiting on a mutex the thread
		// does not hold is undefined in pthreads; here the release is then
		// simply a no-op — and park in FIFO order.
		mu := vm.lcks.get(mtxAddr)
		if mu.held && mu.holder == t.id {
			vm.releaseLock(mu)
			if vm.san != nil {
				vm.san.LockRelease(t.id, mtxAddr)
			}
		}
		cv := vm.conds.get(cvAddr)
		cv.waiters = append(cv.waiters, t.id)
		t.condArmed = true
		t.waitMutex = mtxAddr
		vm.setStatus(t, statusBlockedCond)
		t.blockAddr = cvAddr
		t.blockedSince = vm.step
		t.blockTimeout = timeout
		return false
	}
}

// execSignal wakes the longest-parked waiter (or, for broadcast, every
// waiter) of the condvar at cvAddr: each leaves the armed state and moves
// to statusBlockedLock on its wait's mutex — the re-acquire phase — with
// the timeout disabled. The FIFO order makes the wake choice deterministic
// without consuming scheduler randomness. A signal with no waiters is
// lost; that is precisely the lost-signal bug class the corpus models.
func (vm *VM) execSignal(t *thread, cvAddr mir.Word, broadcast bool, pos mir.Pos) {
	cv := vm.conds.get(cvAddr)
	n := len(cv.waiters)
	if n > 1 && !broadcast {
		n = 1
	}
	for _, wid := range cv.waiters[:n] {
		w := vm.threads[wid]
		w.condArmed = false
		w.condSignaled = true
		vm.setStatus(w, statusBlockedLock)
		w.blockAddr = w.waitMutex
		w.blockedSince = vm.step
		w.blockTimeout = 0
	}
	cv.waiters = cv.waiters[n:]
	if vm.san != nil {
		vm.san.CondSignal(t.id, cvAddr, broadcast, pos)
	}
}

// chanCap reads the declared capacity of the channel at addr: the value
// currently stored in the addressed memory cell. channels.get consults the
// hint only at the channel's first operation (capacity is fixed at
// creation); an unreadable address yields the minimum capacity of one.
func (vm *VM) chanCap(addr mir.Word) mir.Word {
	v, _ := vm.mem.load(addr)
	return v
}

// execChSend executes one step of a chsend instruction: append to the
// buffer when there is room, otherwise block (statusBlockedSend) until a
// receive frees a slot, the channel closes (a failure — sending on a
// closed channel is a program error, as in Go), or the timed form's
// deadline expires (writes 0; the hardened recovery path re-checks the
// shared condition that made the peer stop receiving).
func (vm *VM) execChSend(t *thread, fr *frame, chAddr, val mir.Word, timeout int64, dst, site int, pos mir.Pos) bool {
	ch := vm.channel(chAddr)
	blocked := t.status == statusBlockedSend
	switch {
	case ch.closed:
		vm.fail(mir.FailAssert, pos, site, t.id,
			fmt.Sprintf("send on closed channel %d", chAddr))
		return false
	case !ch.full():
		ch.buf = append(ch.buf, val)
		vm.setStatus(t, statusRunnable)
		if dst >= 0 {
			fr.regs[dst] = 1
		}
		if vm.san != nil {
			vm.san.ChanSend(t.id, chAddr, pos)
		}
		if site > 0 {
			vm.closeEpisode(t, site)
		}
		return true
	case blocked && timeout > 0 && vm.step-t.blockedSince >= timeout:
		vm.setStatus(t, statusRunnable)
		if dst >= 0 {
			fr.regs[dst] = 0
		}
		if vm.sink != nil {
			vm.sink.Record(obs.Event{
				Step: vm.step, Kind: obs.KindLockTimeout,
				TID: int32(t.id), Site: int32(site), Arg: int64(chAddr),
			})
		}
		return true
	default:
		if !blocked {
			vm.setStatus(t, statusBlockedSend)
			t.blockAddr = chAddr
			t.blockedSince = vm.step
			t.blockTimeout = timeout
		}
		return false
	}
}

// execChRecv executes one step of a chrecv instruction: pop the oldest
// buffered value, or yield 0 without blocking once the channel is closed
// and drained (Go semantics — the receive is still ordered after the
// close), otherwise block (statusBlockedRecv) until a value or a close
// arrives.
func (vm *VM) execChRecv(t *thread, fr *frame, chAddr mir.Word, dst int, pos mir.Pos) bool {
	ch := vm.channel(chAddr)
	switch {
	case !ch.empty():
		fr.regs[dst] = ch.buf[0]
		ch.buf = ch.buf[1:]
		vm.setStatus(t, statusRunnable)
		if vm.san != nil {
			vm.san.ChanRecv(t.id, chAddr, pos)
		}
		return true
	case ch.closed:
		fr.regs[dst] = 0
		vm.setStatus(t, statusRunnable)
		if vm.san != nil {
			vm.san.ChanRecv(t.id, chAddr, pos)
		}
		return true
	default:
		if t.status != statusBlockedRecv {
			vm.setStatus(t, statusBlockedRecv)
			t.blockAddr = chAddr
			t.blockedSince = vm.step
			t.blockTimeout = 0
		}
		return false
	}
}

// execChClose closes the channel at chAddr. Closing twice is a program
// error (as in Go). Blocked senders and receivers are woken lazily by
// pickThread's scan: a closed channel makes receivers runnable (they
// drain, then read zeros) and senders runnable (they fail).
func (vm *VM) execChClose(t *thread, chAddr mir.Word, site int, pos mir.Pos) bool {
	ch := vm.channel(chAddr)
	if ch.closed {
		vm.fail(mir.FailAssert, pos, site, t.id,
			fmt.Sprintf("close of closed channel %d", chAddr))
		return false
	}
	ch.closed = true
	if vm.san != nil {
		vm.san.ChanClose(t.id, chAddr, pos)
	}
	return true
}

// execCAS performs an atomic compare-and-swap on the word at addr: one
// scheduling step covers the load, the comparison against expect and (on
// equality) the store of repl; dst receives 1 on success, 0 on failure.
// An unmapped address faults exactly like a plain load.
func (vm *VM) execCAS(t *thread, fr *frame, addr, expect, repl mir.Word, dst, site int, pos mir.Pos) bool {
	cur, ok := vm.mem.load(addr)
	if !ok {
		vm.fail(mir.FailSegfault, pos, site, t.id,
			fmt.Sprintf("invalid cas at address %d", addr))
		return false
	}
	success := cur == expect
	if success {
		vm.mem.store(addr, repl)
		fr.regs[dst] = 1
	} else {
		fr.regs[dst] = 0
	}
	if vm.san != nil {
		vm.san.AtomicCAS(t.id, addr, success, pos)
	}
	return true
}
