package interp

import (
	"fmt"

	"conair/internal/mir"
	"conair/internal/obs"
	"conair/internal/sched"
)

// This file preserves the pre-compilation execution path as a test-only
// oracle: a switch over the original mir.Instr structs with per-step
// operand resolution through eval, exactly as the interpreter worked
// before the ahead-of-time compile stage. It exists for differential
// testing (the external interp_test package sees it through the test
// build of this package) — RunReference must produce results
// bit-identical to Run on every module — and uses the compiled stream only
// for what lowering is trusted least about: the pc↔position mapping
// (VM.posOf) and the flat branch targets (fcode.blockStart), both of
// which the differential sweep therefore exercises against the original
// instruction semantics. It also schedules independently: refPick scans
// every thread and asks the scheduler once per step, with none of the
// compiled path's runnable-set cache, stay budget or inlined draws. Its
// one scheduling rule is the compiled path's: a rollback yields to a
// sched.Yielder.

// Counted is a run's Result with the executions of each checkpoint site,
// which VM.CheckpointExecs reports apart from the Result. The
// differential tests compare both.
type Counted struct {
	Result
	CheckpointExecs map[int]int64
}

// RunCounted runs mod compiled, as RunModule does, and adds the VM's
// per-site checkpoint counts.
func RunCounted(mod *mir.Module, cfg Config) Counted {
	vm := New(mod, cfg)
	r := vm.Run()
	return Counted{*r, vm.CheckpointExecs()}
}

// refVM is a VM run by the reference interpreter. ckpts counts checkpoint
// executions per site id, independently of the compiled path's dense
// counters.
type refVM struct {
	*VM
	ckpts map[int]int64
}

// RunReference executes the module with the reference (pre-compilation)
// interpreter. It is deliberately slow and exists only in test builds.
func RunReference(mod *mir.Module, cfg Config) Counted {
	vm := &refVM{VM: New(mod, cfg)}
	max := vm.cfg.maxSteps()
	for !vm.done && vm.failure == nil {
		if vm.step >= max {
			vm.fail(mir.FailHang, mir.Pos{}, 0, -1, "step limit exceeded (hang)")
			break
		}
		tid, ok := vm.refPick()
		if !ok {
			break
		}
		if vm.sink != nil {
			vm.sink.Record(obs.Event{
				Step: vm.step, Kind: obs.KindSchedPick, TID: int32(tid),
			})
		}
		vm.refExec(vm.threads[tid])
		vm.step++
	}
	return Counted{*vm.result(), vm.ckpts}
}

// refPick is the scheduling step as it was before the runnable-set cache
// and the stay budget: scan every thread (waking sleepers and resolving
// joins), then one Pick through the Scheduler interface. When nothing can
// run it fast-forwards to the next wake, reports a deadlock or ends the
// run, as pickThread does.
func (vm *VM) refPick() (int, bool) {
	for {
		var runnable []int
		var minWake int64 = -1
		anyLive := false
		wake := func(at int64) {
			if minWake < 0 || at < minWake {
				minWake = at
			}
		}
		for _, t := range vm.threads {
			switch t.status {
			case statusRunnable:
				runnable = append(runnable, t.id)
			case statusSleeping:
				anyLive = true
				if t.wakeAt <= vm.step {
					vm.setStatus(t, statusRunnable)
					runnable = append(runnable, t.id)
				} else {
					wake(t.wakeAt)
				}
			case statusBlockedLock:
				anyLive = true
				mu := vm.lcks.get(t.blockAddr)
				switch {
				case !mu.held:
					runnable = append(runnable, t.id)
				case t.blockTimeout > 0 && vm.step-t.blockedSince >= t.blockTimeout:
					runnable = append(runnable, t.id)
				case t.blockTimeout > 0:
					wake(t.blockedSince + t.blockTimeout)
				}
			case statusBlockedJoin:
				anyLive = true
				if tt := vm.threadByID(t.joinTarget); tt == nil || tt.status == statusDone {
					vm.setStatus(t, statusRunnable)
					runnable = append(runnable, t.id)
				}
			case statusBlockedCond:
				anyLive = true
				if t.blockTimeout > 0 {
					if vm.step-t.blockedSince >= t.blockTimeout {
						runnable = append(runnable, t.id)
					} else {
						wake(t.blockedSince + t.blockTimeout)
					}
				}
			case statusBlockedSend:
				anyLive = true
				ch := vm.chans.peek(t.blockAddr)
				switch {
				case ch == nil || !ch.full() || ch.closed:
					runnable = append(runnable, t.id)
				case t.blockTimeout > 0 && vm.step-t.blockedSince >= t.blockTimeout:
					runnable = append(runnable, t.id)
				case t.blockTimeout > 0:
					wake(t.blockedSince + t.blockTimeout)
				}
			case statusBlockedRecv:
				anyLive = true
				if ch := vm.chans.peek(t.blockAddr); ch == nil || !ch.empty() || ch.closed {
					runnable = append(runnable, t.id)
				}
			}
		}
		if len(runnable) > 0 {
			return vm.cfg.Sched.Pick(runnable, vm.step), true
		}
		if !anyLive {
			return 0, false
		}
		if minWake > vm.step {
			vm.step = minWake
			continue
		}
		vm.fail(mir.FailHang, mir.Pos{}, 0, -1,
			fmt.Sprintf("no runnable threads at step %d (deadlock)", vm.step))
		return 0, false
	}
}

// eval resolves an operand against the current frame.
func eval(fr *frame, o mir.Operand) mir.Word {
	switch o.Kind {
	case mir.OperandReg:
		return fr.regs[o.Reg]
	case mir.OperandImm:
		return o.Imm
	}
	return 0
}

// refExec runs exactly one instruction of t, dispatching on the original
// source instruction. Branch targets go through blockStart; everything
// else is the historical exec body unchanged.
func (vm *refVM) refExec(t *thread) {
	fr := t.top()
	fc := &vm.prog.funcs[fr.fn]
	pos := vm.posOf(fr, &fc.code[fr.pc])
	f := &vm.mod.Functions[pos.Fn]
	in := &f.Blocks[pos.Block].Instrs[pos.Index]
	advance := true

	switch in.Op {
	case mir.OpConst:
		fr.regs[in.Dst] = in.Imm

	case mir.OpBin:
		fr.regs[in.Dst] = in.Bin.Eval(eval(fr, in.A), eval(fr, in.B))
		// A site-tagged comparison is the transformed failure check; its
		// outcome is observed at the branch, handled under OpBr.

	case mir.OpLoadG:
		fr.regs[in.Dst] = vm.mem.globals[in.Aux]
		if vm.san != nil {
			vm.san.Access(t.id, globalAddr(int(in.Aux)), false, pos)
		}

	case mir.OpStoreG:
		vm.mem.globals[in.Aux] = eval(fr, in.A)
		if vm.san != nil {
			vm.san.Access(t.id, globalAddr(int(in.Aux)), true, pos)
		}

	case mir.OpAddrG:
		fr.regs[in.Dst] = globalAddr(int(in.Aux))

	case mir.OpLoad:
		addr := eval(fr, in.A)
		v, ok := vm.mem.load(addr)
		if !ok {
			vm.fail(mir.FailSegfault, pos, int(in.Site), t.id,
				fmt.Sprintf("invalid read at address %d", addr))
			return
		}
		fr.regs[in.Dst] = v
		if vm.san != nil {
			vm.san.Access(t.id, addr, false, pos)
		}

	case mir.OpStore:
		addr := eval(fr, in.A)
		if !vm.mem.store(addr, eval(fr, in.B)) {
			vm.fail(mir.FailSegfault, pos, int(in.Site), t.id,
				fmt.Sprintf("invalid write at address %d", addr))
			return
		}
		if vm.san != nil {
			vm.san.Access(t.id, addr, true, pos)
		}

	case mir.OpLoadS:
		fr.regs[in.Dst] = fr.slots[in.Aux]

	case mir.OpStoreS:
		fr.slots[in.Aux] = eval(fr, in.A)

	case mir.OpAlloc:
		addr := vm.mem.alloc(eval(fr, in.A))
		fr.regs[in.Dst] = addr
		if t.jmp != nil {
			t.pushComp(compAlloc, addr)
		}

	case mir.OpFree:
		vm.mem.free(eval(fr, in.A))

	case mir.OpLock:
		addr := eval(fr, in.A)
		mu := vm.lcks.get(addr)
		switch {
		case !mu.held:
			vm.acquireLock(mu, t.id)
			vm.setStatus(t, statusRunnable)
			if t.jmp != nil {
				t.pushComp(compLock, addr)
			}
			if vm.sink != nil {
				vm.sink.Record(obs.Event{
					Step: vm.step, Kind: obs.KindLockAcquire,
					TID: int32(t.id), Site: int32(int(in.Site)), Arg: int64(addr),
				})
			}
			if vm.san != nil {
				vm.san.LockAcquire(t.id, addr, false, pos)
			}
		case mu.holder == t.id && t.status != statusBlockedLock:
			vm.fail(mir.FailHang, pos, int(in.Site), t.id,
				fmt.Sprintf("self-deadlock on lock %d", addr))
			return
		default:
			if t.status != statusBlockedLock {
				if vm.san != nil {
					vm.san.LockRequest(t.id, addr, false, pos)
				}
				vm.setStatus(t, statusBlockedLock)
				t.blockAddr = addr
				t.blockedSince = vm.step
				t.blockTimeout = 0
				if cycle := vm.deadlockCycle(t); cycle != nil {
					vm.fail(mir.FailHang, pos, int(in.Site), t.id,
						fmt.Sprintf("deadlock: wait-for cycle among threads %v", cycle))
					return
				}
			}
			advance = false
		}

	case mir.OpTimedLock:
		addr := eval(fr, in.A)
		mu := vm.lcks.get(addr)
		selfHeld := mu.held && mu.holder == t.id && t.status != statusBlockedLock
		waiting := t.status == statusBlockedLock
		expired := waiting && vm.step-t.blockedSince >= t.blockTimeout
		switch {
		case !mu.held:
			vm.acquireLock(mu, t.id)
			vm.setStatus(t, statusRunnable)
			fr.regs[in.Dst] = 1
			if t.jmp != nil {
				t.pushComp(compLock, addr)
			}
			if vm.sink != nil {
				vm.sink.Record(obs.Event{
					Step: vm.step, Kind: obs.KindLockAcquire,
					TID: int32(t.id), Site: int32(int(in.Site)), Arg: int64(addr),
				})
			}
			if vm.san != nil {
				vm.san.LockAcquire(t.id, addr, true, pos)
			}
			if int(in.Site) > 0 {
				vm.closeEpisode(t, int(in.Site))
			}
		case selfHeld || expired:
			vm.setStatus(t, statusRunnable)
			fr.regs[in.Dst] = 0
			if vm.sink != nil {
				vm.sink.Record(obs.Event{
					Step: vm.step, Kind: obs.KindLockTimeout,
					TID: int32(t.id), Site: int32(int(in.Site)), Arg: int64(addr),
				})
			}
		default:
			if !waiting {
				if vm.san != nil {
					vm.san.LockRequest(t.id, addr, true, pos)
				}
				vm.setStatus(t, statusBlockedLock)
				t.blockAddr = addr
				t.blockedSince = vm.step
				t.blockTimeout = int64(in.Imm)
			}
			advance = false
		}

	case mir.OpUnlock:
		addr := eval(fr, in.A)
		mu := vm.lcks.get(addr)
		if mu.held && mu.holder == t.id {
			vm.releaseLock(mu)
			if vm.san != nil {
				vm.san.LockRelease(t.id, addr)
			}
		}

	case mir.OpWait:
		advance = vm.execWait(t, fr, eval(fr, in.A), eval(fr, in.B),
			int64(in.Imm), int(in.Dst), int(in.Site), pos)

	case mir.OpSignal:
		vm.execSignal(t, eval(fr, in.A), false, pos)

	case mir.OpBroadcast:
		vm.execSignal(t, eval(fr, in.A), true, pos)

	case mir.OpChSend:
		advance = vm.execChSend(t, fr, eval(fr, in.A), eval(fr, in.B),
			int64(in.Imm), int(in.Dst), int(in.Site), pos)

	case mir.OpChRecv:
		advance = vm.execChRecv(t, fr, eval(fr, in.A), int(in.Dst), pos)

	case mir.OpChClose:
		advance = vm.execChClose(t, eval(fr, in.A), int(in.Site), pos)

	case mir.OpCAS:
		advance = vm.execCAS(t, fr, eval(fr, in.A), eval(fr, in.B),
			eval(fr, f.Args(in)[0]), int(in.Dst), int(in.Site), pos)

	case mir.OpCall:
		nfr := vm.newFrame(int(in.Aux), int(in.Dst))
		for i, a := range f.Args(in) {
			nfr.regs[i] = eval(fr, a)
		}
		fr.pc++
		t.frames = append(t.frames, nfr)
		return

	case mir.OpSpawn:
		if len(vm.threads) >= maxThreads {
			vm.fail(mir.FailHang, pos, 0, t.id, "thread limit exceeded")
			return
		}
		args := make([]mir.Word, len(f.Args(in)))
		for i, a := range f.Args(in) {
			args[i] = eval(fr, a)
		}
		fr.regs[in.Dst] = mir.Word(vm.spawn(int(in.Aux), args))
		if vm.san != nil {
			vm.san.ThreadSpawn(t.id, int(fr.regs[in.Dst]))
		}

	case mir.OpJoin:
		target := int(eval(fr, in.A))
		tt := vm.threadByID(target)
		if tt != nil && tt.status != statusDone {
			vm.setStatus(t, statusBlockedJoin)
			t.joinTarget = target
			advance = false
		} else if vm.san != nil {
			vm.san.ThreadJoin(t.id, target)
		}

	case mir.OpOutput:
		if vm.cfg.CollectOutput {
			vm.output = append(vm.output, OutputEvent{
				Text: f.Text(in), Value: eval(fr, in.A), Thread: t.id, Step: vm.step,
			})
		}
		if vm.sink != nil {
			vm.sink.Record(obs.Event{
				Step: vm.step, Kind: obs.KindOutput,
				TID: int32(t.id), Arg: int64(eval(fr, in.A)), Text: f.Text(in),
			})
		}

	case mir.OpAssert:
		if eval(fr, in.A) == 0 {
			kind := mir.FailAssert
			if in.AssertKind == mir.AssertOracle {
				kind = mir.FailWrongOutput
			}
			vm.fail(kind, pos, int(in.Site), t.id, f.Text(in))
			return
		}

	case mir.OpYield:

	case mir.OpSleep:
		d := eval(fr, in.A)
		if d > 0 {
			vm.setStatus(t, statusSleeping)
			t.wakeAt = vm.step + d
		}

	case mir.OpSleepRand:
		n := eval(fr, in.A)
		if n > 0 {
			d := mir.Word(vm.cfg.Sched.Intn(int(n) + 1))
			if d > 0 {
				vm.setStatus(t, statusSleeping)
				t.wakeAt = vm.step + d
			}
		}

	case mir.OpNop:

	case mir.OpCheckpoint:
		t.regionCtr++
		jb := t.jmp
		if jb == nil || cap(jb.regs) < len(fr.regs) {
			jb = &jmpbuf{regs: make([]mir.Word, len(fr.regs))}
			t.jmp = jb
		}
		jb.regs = jb.regs[:len(fr.regs)]
		copy(jb.regs, fr.regs)
		jb.frameDepth = len(t.frames) - 1
		jb.pc = fr.pc + 1
		jb.regionCtr = t.regionCtr
		vm.stats.Checkpoints++
		if vm.ckpts == nil {
			vm.ckpts = map[int]int64{}
		}
		vm.ckpts[int(in.Site)]++
		if vm.sink != nil {
			vm.sink.Record(obs.Event{
				Step: vm.step, Kind: obs.KindCheckpoint,
				TID: int32(t.id), Site: int32(int(in.Site)),
			})
		}

	case mir.OpRollback:
		site, slot := int(in.Site), vm.prog.siteSlot(in.Site)
		if t.jmp != nil && t.jmp.frameDepth < len(t.frames) &&
			t.retryCount(slot) < in.Imm {
			t.bumpRetry(slot)
			e := t.beginEpisode(slot, site, vm.step)
			if vm.sink != nil {
				if e.Retries == 1 {
					vm.sink.Record(obs.Event{
						Step: vm.step, Kind: obs.KindEpisodeBegin,
						TID: int32(t.id), Site: int32(site),
					})
				}
				vm.sink.Record(obs.Event{
					Step: vm.step, Kind: obs.KindRollback,
					TID: int32(t.id), Site: int32(site), Arg: e.Retries,
				})
			}
			vm.rollback(t)
			vm.stats.Rollbacks++
			if y, ok := vm.cfg.Sched.(sched.Yielder); ok {
				y.Yield(t.id) // a rollback is a yield
			}
			return
		}

	case mir.OpFail:
		vm.fail(in.FailKind, pos, int(in.Site), t.id, f.Text(in))
		return

	case mir.OpBr:
		c := eval(fr, in.A)
		if int(in.Site) > 0 && c != 0 {
			vm.closeEpisode(t, int(in.Site))
		}
		if c != 0 {
			fr.pc = int(fc.blockStart[in.Aux])
		} else {
			fr.pc = int(fc.blockStart[in.Else])
		}
		return

	case mir.OpJmp:
		fr.pc = int(fc.blockStart[in.Aux])
		return

	case mir.OpRet:
		ret := eval(fr, in.A)
		t.frames = t.frames[:len(t.frames)-1]
		vm.recycleFrame(fr)
		if t.jmp != nil && t.jmp.frameDepth >= len(t.frames) {
			t.jmp = nil
		}
		if len(t.frames) == 0 {
			vm.setStatus(t, statusDone)
			t.result = ret
			if vm.sink != nil {
				vm.sink.Record(obs.Event{
					Step: vm.step, Kind: obs.KindThreadExit,
					TID: int32(t.id), Arg: int64(ret),
				})
			}
			if t.id == vm.mainTID {
				vm.done = true
				vm.exit = ret
			}
			return
		}
		caller := t.top()
		if fr.retDst >= 0 {
			caller.regs[fr.retDst] = ret
		}
		return

	default:
		vm.fail(mir.FailHang, pos, 0, t.id, fmt.Sprintf("unimplemented op %v", in.Op))
		return
	}

	if advance {
		fr.pc++
	}
}
