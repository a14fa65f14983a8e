package interp

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"conair/internal/mir"
	"conair/internal/obs"
	"conair/internal/sched"
)

// interruptMask throttles Config.Interrupt polling: the flag is consulted
// only on steps where step&interruptMask == 0, so an enabled watchdog
// costs one atomic load per 64K instructions, and a disabled one a single
// pointer compare at those steps.
const interruptMask = 1<<16 - 1

// interrupted reports whether the watchdog flag fired for this step.
func (vm *VM) interrupted(step int64) bool {
	return vm.intr != nil && step&interruptMask == 0 && vm.intr.Load()
}

// hangAt returns why the run must stop before executing at step — the
// step limit max, or the watchdog — or "" when it may go on.
func (vm *VM) hangAt(step, max int64) string {
	if step >= max {
		return hangStepLimit
	}
	if vm.interrupted(step) {
		return hangWatchdog
	}
	return ""
}

// The messages of the two hang stops.
const (
	hangStepLimit = "step limit exceeded (hang)"
	hangWatchdog  = "interrupted by watchdog"
)

// quantumBudget returns how many instructions may retire from step
// before hangAt can next stop the run: up to max, and with a watchdog
// armed, up to its next poll. It is at least one: the instruction at step
// already has its pick, and a pick that fast-forwarded past max to wake a
// sleeper still runs it.
func (vm *VM) quantumBudget(step, limit int64) int64 {
	b := limit - step
	if vm.intr != nil {
		b = min(b, (step|interruptMask)+1-step)
	}
	return max(b, 1)
}

// VM executes one MIR module run. Create with New, drive with Run.
type VM struct {
	mod   *mir.Module
	prog  *Program
	cfg   Config
	mem   *memory
	lcks  *locks
	conds *condvars
	chans *channels

	threads []*thread
	nextTID int

	step    int64
	stats   Stats
	output  []OutputEvent
	failure *Failure
	done    bool
	mainTID int
	exit    mir.Word
	counted bool

	runnableBuf []int

	// sink mirrors cfg.Sink; every emit site guards on one nil check so
	// the disabled path costs a pointer compare and zero allocations.
	sink *obs.Tracer

	// san mirrors cfg.Sanitizer under the same nil-check contract as sink.
	san Sanitizer

	// intr mirrors cfg.Interrupt; the run loop polls it every
	// interruptPeriod steps (a mask check plus one atomic load) and aborts
	// with a hang failure when it reads true.
	intr *atomic.Bool

	// rnd is cfg.Sched devirtualized: non-nil when the scheduler is the
	// default *sched.Random, letting the per-step pick call the concrete
	// Intn (which draws bit-identically to Pick — see sched.Random) instead
	// of dispatching through the Scheduler interface.
	rnd *sched.Random

	// flight is set (alongside rnd) when cfg.Sched is a
	// *sched.FlightRecorder wrapping a *sched.Random: the pick fast path
	// then draws from the inner Random and reports each decision to the
	// recorder via Note/NoteRun, keeping the always-on flight recorder off the
	// interface-dispatch slow path. Every vm.rnd pick site must pair its
	// draw (or Skip) with a note, or the recorded stream would miss picks.
	flight *sched.FlightRecorder

	// live lists the ids of non-done threads in ascending id order, and
	// waiting counts how many of them are not statusRunnable. Together they
	// replace the per-step all-threads rescan in pickThread: when waiting
	// is zero the live list IS the runnable list (the overwhelmingly common
	// case), and otherwise only live threads are scanned. Every status
	// transition must go through setStatus to keep both consistent.
	live    []int
	liveT   []*thread // same order as live; lets the scan path range pointers
	waiting int

	// gen counts changes to what pickThread computes the runnable set
	// from: thread statuses (setStatus), spawns, snapshot restores, lock
	// ownership (acquireLock, releaseLock) and channel state (channel).
	// runnableBuf holds the last scan's set, which stays exact while gen
	// equals scanGen and the step is below scanUntil, the scan's next
	// sleeper wake or lock, wait or send timeout.
	gen       uint64
	scanGen   uint64
	scanUntil int64

	// The stay budget, for schedulers that are sched.Stayers (never for
	// *sched.Random, which keeps its inlined draws). After each real pick
	// the scheduler is asked once how many coming picks are certainly the
	// same thread; while gen equals stayGen the next stayLeft picks are
	// stayTID without a Pick. The stayGrant-stayLeft picks taken that way
	// are not yet committed with Advance (see settle).
	stayer    sched.Stayer
	stayTID   int
	stayLeft  int64
	stayGrant int64
	stayGen   uint64

	// yielder is cfg.Sched as a sched.Yielder (never under *sched.Random):
	// a thread that rolls back yields to it, as a spinning thread is
	// preempted by a real OS.
	yielder sched.Yielder

	// pools recycles frame register/slot arrays per function, so the call
	// hot path reuses zeroed arrays instead of allocating. Indexed by
	// function; each entry stacks {regs, slots} pairs of retired frames.
	pools [][][2][]mir.Word

	// arena is the VM's frame backing store: pool misses carve register/slot
	// arrays out of one chunked allocation instead of calling make per
	// frame, so a run's allocation count is O(arena chunks), not O(calls).
	// The checkpoint counters come from its first chunk too.
	arena    []mir.Word
	arenaOff int

	// sbQuanta counts superblock quanta entered and sbInstrs the
	// instructions retired inside them; their difference is the number of
	// full dispatch round-trips the batching saved. Flushed to the metrics
	// registry once per run by result().
	sbQuanta int64
	sbInstrs int64

	// ckptExecs counts executions per checkpoint counter (Program.ckptSites),
	// in words of the first arena chunk; CheckpointExecs maps it to site
	// ids on demand.
	ckptExecs []int64
}

// New prepares a VM for the module, compiling it to the flat code stream
// (memoized per module — see Compile). The module must contain a main
// function with no parameters; New panics otherwise (the verifier enforces
// the signature, so this indicates misuse rather than bad input).
func New(mod *mir.Module, cfg Config) *VM {
	if cfg.Sched == nil {
		cfg.Sched = sched.NewRandom(1)
	}
	mi := mod.Main()
	if mi < 0 {
		panic(mir.ErrNoMain)
	}
	vm := &VM{
		mod:   mod,
		prog:  Compile(mod),
		cfg:   cfg,
		mem:   newMemory(mod),
		lcks:  newLocks(),
		conds: newCondvars(),
		chans: newChannels(),
		pools: make([][][2][]mir.Word, len(mod.Functions)),
		sink:  cfg.Sink,
		san:   cfg.Sanitizer,
		intr:  cfg.Interrupt,
	}
	if n := len(vm.prog.ckptSites); n > 0 {
		vm.ckptExecs = vm.arenaAlloc(n)
	}
	vm.rnd, _ = cfg.Sched.(*sched.Random)
	if fr, ok := cfg.Sched.(*sched.FlightRecorder); ok {
		if inner, ok := fr.Inner().(*sched.Random); ok {
			vm.rnd, vm.flight = inner, fr
		}
	}
	if vm.rnd == nil {
		vm.stayer, _ = cfg.Sched.(sched.Stayer)
		vm.yielder, _ = cfg.Sched.(sched.Yielder)
	}
	vm.mainTID = vm.spawn(mi, nil)
	if vm.san != nil {
		vm.san.ThreadSpawn(-1, vm.mainTID)
	}
	return vm
}

// waits reports whether a status keeps a live thread out of the runnable
// fast path.
func waits(s threadStatus) bool {
	return s == statusSleeping || s == statusBlockedLock || s == statusBlockedJoin ||
		s == statusBlockedCond || s == statusBlockedSend || s == statusBlockedRecv
}

// setStatus transitions t to s, maintaining the live list and the waiting
// counter. All status writes after spawn must go through here.
func (vm *VM) setStatus(t *thread, s threadStatus) {
	old := t.status
	if old == s {
		return
	}
	t.status = s
	vm.gen++
	if waits(old) {
		vm.waiting--
	}
	switch {
	case waits(s):
		vm.waiting++
		if vm.sink != nil {
			reason := obs.BlockSleep
			switch s {
			case statusBlockedLock:
				reason = obs.BlockLock
			case statusBlockedJoin:
				reason = obs.BlockJoin
			case statusBlockedCond:
				reason = obs.BlockCond
			case statusBlockedSend:
				reason = obs.BlockChanSend
			case statusBlockedRecv:
				reason = obs.BlockChanRecv
			}
			vm.sink.Record(obs.Event{
				Step: vm.step, Kind: obs.KindThreadBlock,
				TID: int32(t.id), Arg: reason,
			})
		}
	case s == statusDone:
		vm.removeLive(t.id)
	}
}

// acquireLock and releaseLock are the only writers of lock ownership,
// which decides whether a thread blocked on the lock is runnable.
func (vm *VM) acquireLock(mu *mutex, tid int) {
	mu.held, mu.holder = true, tid
	vm.gen++
}

func (vm *VM) releaseLock(mu *mutex) {
	mu.held = false
	vm.gen++
}

// channel returns the channel at addr for an operation that may create,
// fill, drain or close it, all of which decide whether a thread blocked
// on it is runnable.
func (vm *VM) channel(addr mir.Word) *channel {
	vm.gen++
	return vm.chans.get(addr, vm.chanCap(addr))
}

// removeLive deletes id from the (ascending) live list.
func (vm *VM) removeLive(id int) {
	i := sort.SearchInts(vm.live, id)
	if i < len(vm.live) && vm.live[i] == id {
		vm.live = append(vm.live[:i], vm.live[i+1:]...)
		vm.liveT = append(vm.liveT[:i], vm.liveT[i+1:]...)
	}
}

// rebuildLive reconstructs the live list and waiting counter from thread
// statuses; snapshot restore replaces the thread set wholesale and calls
// this instead of replaying transitions.
func (vm *VM) rebuildLive() {
	vm.gen++
	vm.live = vm.live[:0]
	vm.liveT = vm.liveT[:0]
	vm.waiting = 0
	for _, t := range vm.threads {
		if t.status == statusDone {
			continue
		}
		vm.live = append(vm.live, t.id)
		vm.liveT = append(vm.liveT, t)
		if t.status != statusRunnable {
			vm.waiting++
		}
	}
}

// newFrame builds an activation record for function fi, reusing a pooled
// register/slot pair when one is free. Reused arrays are zeroed, so a
// pooled frame is indistinguishable from a fresh one.
func (vm *VM) newFrame(fi, retDst int) frame {
	f := &vm.mod.Functions[fi]
	var regs, slots []mir.Word
	if pool := vm.pools[fi]; len(pool) > 0 {
		pair := pool[len(pool)-1]
		vm.pools[fi] = pool[:len(pool)-1]
		regs, slots = pair[0], pair[1]
		clear(regs)
		clear(slots)
	} else {
		nr := f.NumRegs()
		buf := vm.arenaAlloc(nr + len(f.SlotNames))
		regs, slots = buf[:nr:nr], buf[nr:]
	}
	return frame{fn: fi, regs: regs, slots: slots, retDst: retDst}
}

// arenaAlloc carves an n-word array out of the VM's frame arena, growing it
// by chunks: the first sized by Program.arenaWords (the checkpoint counters
// and one frame of every function), later ones fixed. Fresh chunks are
// zeroed by make, and every span is handed out exactly once (recycling
// goes through the per-function pools, which zero on reuse), so callers
// always see zeroed memory.
func (vm *VM) arenaAlloc(n int) []mir.Word {
	if vm.arenaOff+n > len(vm.arena) {
		c := arenaChunk
		if vm.arena == nil {
			c = vm.prog.arenaWords
		}
		c = max(c, n)
		vm.arena = make([]mir.Word, c)
		vm.arenaOff = 0
	}
	buf := vm.arena[vm.arenaOff : vm.arenaOff+n : vm.arenaOff+n]
	vm.arenaOff += n
	return buf
}

// arenaChunk is the frame-arena growth unit, in words.
const arenaChunk = 1024

// recycleFrame returns a retired frame's arrays to the per-function pool.
func (vm *VM) recycleFrame(fr *frame) {
	vm.pools[fr.fn] = append(vm.pools[fr.fn], [2][]mir.Word{fr.regs, fr.slots})
	fr.regs, fr.slots = nil, nil
}

// Run executes the module to completion, failure, or the step cutoff.
func (vm *VM) Run() *Result {
	vm.runLoop(vm.cfg.maxSteps(), false)
	return vm.result()
}

// RunModule is a convenience one-shot runner.
func RunModule(mod *mir.Module, cfg Config) *Result {
	return New(mod, cfg).Run()
}

// closeEpisode closes any open recovery episode for site on t — the
// site's failure check passed (or its timed lock was acquired).
func (vm *VM) closeEpisode(t *thread, site int) {
	if e := t.endEpisode(vm.prog.siteSlot(int32(site)), vm.step); e != nil {
		vm.stats.Episodes = append(vm.stats.Episodes, *e)
		if vm.sink != nil {
			vm.sink.Record(obs.Event{
				Step: vm.step, Kind: obs.KindEpisodeEnd,
				TID: int32(t.id), Site: int32(site), Arg: e.Retries,
			})
		}
	}
}

// runLoop is the dispatch loop over the compiled code stream: a tight
// program-counter walk, with the current thread's frame and code array
// cached across steps and refreshed only on thread switch, call, return
// and rollback. It executes until the run ends or (in single mode) one
// instruction retires, and reports whether any instruction executed.
//
// Every instruction has exactly one implementation. A scheduling-
// irrelevant instruction (sbEligible) is a case of execLocal's switch;
// every other instruction is a case of the dispatch switch below.
//
// Determinism contract: every executed instruction advances the
// scheduler's stream by exactly one decision — one Pick, hence one
// sched.Random draw — and a sink sees exactly one KindSchedPick for it.
// Superblock quanta obey it. Outside single mode, reaching an eligible
// instruction enters a quantum (VM.quantum), which hands execLocal a
// budget: the most instructions it may retire before the quantum must
// look again. A budget never reaches past the step limit or the next
// watchdog poll (quantumBudget), so the hang checks run once per call, at
// its edge, and see exactly the steps they would see one instruction at a
// time. Eligible instructions cannot fail, block, wake, spawn or finish
// threads, so the runnable set is fixed for the whole quantum, and the
// picks a batch owns are recorded to the sink after it, in step order;
// eligible instructions emit nothing else, so the event stream is
// unchanged.
//
//   - With one live thread and none waiting under sched.Random — the
//     overwhelmingly common quantum — every decision in it is that thread,
//     so the budget is the hang budget alone, the loop draws nothing per
//     instruction and advances the stream in bulk at the exit
//     (Random.Skip(stay)), with one flight-ring note for the same stay;
//     the stream is left exactly where per-instruction draws would leave
//     it.
//   - Under a sched.Stayer (PCT, segment replay, a flight recorder around
//     either) the picks the stay budget has granted are certainly this
//     thread, so a batch may run one instruction past them (its last pick
//     is a real one) within the hang budget.
//   - Every other quantum (several live threads, or one waiting, under
//     Random) runs one instruction per call and takes a real pick after
//     each.
//
// StepOnce (single mode) runs execLocal with a budget of one and returns,
// so a StepOnce-driven run makes the same decisions one instruction at a
// time.
//
// Stayed runs obey the contract too. Each real Pick is followed by one
// Stay query, and the picks it grants are taken at the loop top or inside
// a quantum, wherever they fall, without calling Pick. The budget holds
// only while gen is unchanged, that is while no status, spawn, lock or
// channel change could alter the runnable set, and only up to the set's
// next wake or timeout. Before the next real Pick, when the result is
// built and around snapshots, settle commits the taken picks with one
// Advance. The scheduler then sits exactly where one Pick per instruction
// would have left it, and every pick, sink event and flight segment is
// the same.
func (vm *VM) runLoop(max int64, single bool) bool {
	executed := false
	tid := -1
	var (
		t    *thread
		fr   *frame
		code []cinstr
	)
	for {
		if vm.done || vm.failure != nil {
			return executed
		}
		if vm.step >= max {
			vm.fail(mir.FailHang, mir.Pos{}, 0, -1, hangStepLimit)
			return executed
		}
		if vm.interrupted(vm.step) {
			vm.fail(mir.FailHang, mir.Pos{}, 0, -1, hangWatchdog)
			return executed
		}
		var ntid int
		switch {
		case vm.rnd != nil && vm.waiting == 0 && len(vm.live) > 0:
			// Inlined pick fast path: every thread runnable under the
			// default random scheduler. Same draw arithmetic (and draw
			// count) as pickThread → Intn, minus two call frames per
			// instruction.
			ntid = vm.live[vm.rnd.ReduceDraw(vm.rnd.Int31(), int32(len(vm.live)))]
			vm.noteFlight(ntid)
		case vm.rnd == nil && vm.stay():
			ntid = vm.stayTID
		default:
			var ok bool
			if ntid, ok = vm.pickThread(); !ok {
				return executed // deadlock already reported, or everything exited
			}
		}
		if vm.sink != nil {
			vm.sink.Record(obs.Event{
				Step: vm.step, Kind: obs.KindSchedPick, TID: int32(ntid),
			})
		}
		if ntid != tid {
			tid = ntid
			t = vm.threads[tid]
			fr = t.top()
			code = vm.prog.funcs[fr.fn].code
		}

	dispatch:
		in := &code[fr.pc]

		if sbEligible(in) {
			if single {
				execLocal(code, fr, 1)
				vm.step++
				return true
			}
			executed = true
			nt, ok := vm.quantum(tid, fr, max)
			if !ok {
				return true
			}
			if nt != tid {
				tid = nt
				t = vm.threads[tid]
				fr = t.top()
				code = vm.prog.funcs[fr.fn].code
				goto dispatch
			}
			// The instruction at fr.pc is scheduling-relevant and its pick
			// is already consumed: fall through to the dispatch switch.
			in = &code[fr.pc]
		}

		switch in.op {
		case cLoadG:
			fr.regs[in.dst] = vm.mem.globals[in.aux]
			if vm.san != nil {
				vm.san.Access(t.id, globalAddr(int(in.aux)), false, vm.posOf(fr, in))
			}
			fr.pc++

		case cStoreG:
			vm.mem.globals[in.aux] = in.a(fr)
			if vm.san != nil {
				vm.san.Access(t.id, globalAddr(int(in.aux)), true, vm.posOf(fr, in))
			}
			fr.pc++

		case cLoad:
			addr := in.a(fr)
			v, ok := vm.mem.load(addr)
			if !ok {
				vm.fail(mir.FailSegfault, vm.posOf(fr, in), int(in.site), t.id,
					fmt.Sprintf("invalid read at address %d", addr))
				break
			}
			fr.regs[in.dst] = v
			if vm.san != nil {
				vm.san.Access(t.id, addr, false, vm.posOf(fr, in))
			}
			fr.pc++

		case cStore:
			addr := in.a(fr)
			if !vm.mem.store(addr, in.b(fr)) {
				vm.fail(mir.FailSegfault, vm.posOf(fr, in), int(in.site), t.id,
					fmt.Sprintf("invalid write at address %d", addr))
				break
			}
			if vm.san != nil {
				vm.san.Access(t.id, addr, true, vm.posOf(fr, in))
			}
			fr.pc++

		case cAlloc:
			addr := vm.mem.alloc(in.a(fr))
			fr.regs[in.dst] = addr
			if t.jmp != nil {
				t.pushComp(compAlloc, addr)
			}
			fr.pc++

		case cFree:
			vm.mem.free(in.a(fr))
			fr.pc++

		case cLock:
			addr := in.a(fr)
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
						TID: int32(t.id), Site: in.site, Arg: int64(addr),
					})
				}
				if vm.san != nil {
					vm.san.LockAcquire(t.id, addr, false, vm.posOf(fr, in))
				}
				fr.pc++
			case mu.holder == t.id && t.status != statusBlockedLock:
				vm.fail(mir.FailHang, vm.posOf(fr, in), int(in.site), t.id,
					fmt.Sprintf("self-deadlock on lock %d", addr))
			default:
				if t.status != statusBlockedLock {
					if vm.san != nil {
						// Record the lock request before the wait-for-cycle
						// check below: an actual deadlock fails the run right
						// here, and the predictor needs this edge.
						vm.san.LockRequest(t.id, addr, false, vm.posOf(fr, in))
					}
					vm.setStatus(t, statusBlockedLock)
					t.blockAddr = addr
					t.blockedSince = vm.step
					t.blockTimeout = 0
					if cycle := vm.deadlockCycle(t); cycle != nil {
						vm.fail(mir.FailHang, vm.posOf(fr, in), int(in.site), t.id,
							fmt.Sprintf("deadlock: wait-for cycle among threads %v", cycle))
					}
				}
			}

		case cTimedLock:
			addr := in.a(fr)
			mu := vm.lcks.get(addr)
			selfHeld := mu.held && mu.holder == t.id && t.status != statusBlockedLock
			waiting := t.status == statusBlockedLock
			expired := waiting && vm.step-t.blockedSince >= t.blockTimeout
			switch {
			case !mu.held:
				vm.acquireLock(mu, t.id)
				vm.setStatus(t, statusRunnable)
				fr.regs[in.dst] = 1
				if t.jmp != nil {
					t.pushComp(compLock, addr)
				}
				if vm.sink != nil {
					vm.sink.Record(obs.Event{
						Step: vm.step, Kind: obs.KindLockAcquire,
						TID: int32(t.id), Site: in.site, Arg: int64(addr),
					})
				}
				if vm.san != nil {
					vm.san.LockAcquire(t.id, addr, true, vm.posOf(fr, in))
				}
				if in.site > 0 {
					vm.closeEpisode(t, int(in.site))
				}
				fr.pc++
			case selfHeld || expired:
				// Self-acquisition would never succeed; treat it as an
				// immediate timeout. An expired wait reports timeout too.
				vm.setStatus(t, statusRunnable)
				fr.regs[in.dst] = 0
				if vm.sink != nil {
					vm.sink.Record(obs.Event{
						Step: vm.step, Kind: obs.KindLockTimeout,
						TID: int32(t.id), Site: in.site, Arg: int64(addr),
					})
				}
				fr.pc++
			default:
				if !waiting {
					if vm.san != nil {
						vm.san.LockRequest(t.id, addr, true, vm.posOf(fr, in))
					}
					vm.setStatus(t, statusBlockedLock)
					t.blockAddr = addr
					t.blockedSince = vm.step
					t.blockTimeout = in.bImm
				}
			}

		case cUnlock:
			addr := in.a(fr)
			mu := vm.lcks.get(addr)
			if mu.held && mu.holder == t.id {
				vm.releaseLock(mu)
				if vm.san != nil {
					vm.san.LockRelease(t.id, addr)
				}
			}
			// Unlocking a lock we do not hold is undefined in pthreads; the
			// interpreter ignores it, as the analyses never generate it.
			fr.pc++

		case cWait:
			if vm.execWait(t, fr, in.a(fr), in.b(fr), int64(in.aux),
				int(in.dst), int(in.site), vm.posOf(fr, in)) {
				fr.pc++
			}

		case cSignal:
			vm.execSignal(t, in.a(fr), false, vm.posOf(fr, in))
			fr.pc++

		case cBroadcast:
			vm.execSignal(t, in.a(fr), true, vm.posOf(fr, in))
			fr.pc++

		case cChSend:
			if vm.execChSend(t, fr, in.a(fr), in.b(fr), int64(in.aux),
				int(in.dst), int(in.site), vm.posOf(fr, in)) {
				fr.pc++
			}

		case cChRecv:
			if vm.execChRecv(t, fr, in.a(fr), int(in.dst), vm.posOf(fr, in)) {
				fr.pc++
			}

		case cChClose:
			if vm.execChClose(t, in.a(fr), int(in.site), vm.posOf(fr, in)) {
				fr.pc++
			}

		case cCAS:
			if vm.execCAS(t, fr, in.a(fr), in.b(fr), vm.prog.funcs[fr.fn].argsOf(in)[0].value(fr),
				int(in.dst), int(in.site), vm.posOf(fr, in)) {
				fr.pc++
			}

		case cCall:
			nfr := vm.newFrame(int(in.aux), int(in.dst))
			for i, a := range vm.prog.funcs[fr.fn].argsOf(in) {
				nfr.regs[i] = a.value(fr)
			}
			// Advance the caller past the call before pushing, so the return
			// resumes at the next instruction.
			fr.pc++
			t.frames = append(t.frames, nfr)
			fr = t.top()
			code = vm.prog.funcs[fr.fn].code

		case cSpawn:
			if len(vm.threads) >= maxThreads {
				vm.fail(mir.FailHang, vm.posOf(fr, in), 0, t.id, "thread limit exceeded")
				break
			}
			cargs := vm.prog.funcs[fr.fn].argsOf(in)
			args := make([]mir.Word, len(cargs))
			for i := range cargs {
				args[i] = cargs[i].value(fr)
			}
			fr.regs[in.dst] = mir.Word(vm.spawn(int(in.aux), args))
			if vm.san != nil {
				vm.san.ThreadSpawn(t.id, int(fr.regs[in.dst]))
			}
			fr.pc++

		case cJoin:
			target := int(in.a(fr))
			tt := vm.threadByID(target)
			if tt != nil && tt.status != statusDone {
				vm.setStatus(t, statusBlockedJoin)
				t.joinTarget = target
			} else {
				if vm.san != nil {
					// The waiter proceeds past the join: the target's effects
					// now happen-before everything the waiter does next.
					vm.san.ThreadJoin(t.id, target)
				}
				fr.pc++
			}

		case cOutput:
			if vm.cfg.CollectOutput {
				vm.output = append(vm.output, OutputEvent{
					Text: vm.textOf(fr, in), Value: in.a(fr), Thread: t.id, Step: vm.step,
				})
			}
			if vm.sink != nil {
				vm.sink.Record(obs.Event{
					Step: vm.step, Kind: obs.KindOutput,
					TID: int32(t.id), Arg: int64(in.a(fr)), Text: vm.textOf(fr, in),
				})
			}
			fr.pc++

		case cAssert:
			if in.a(fr) == 0 {
				kind := mir.FailAssert
				if in.akind == mir.AssertOracle {
					kind = mir.FailWrongOutput
				}
				vm.fail(kind, vm.posOf(fr, in), int(in.site), t.id, vm.textOf(fr, in))
				break
			}
			fr.pc++

		case cSleep:
			d := in.a(fr)
			if d > 0 {
				vm.setStatus(t, statusSleeping)
				t.wakeAt = vm.step + d
			}
			fr.pc++

		case cSleepRand:
			n := in.a(fr)
			if n > 0 {
				d := mir.Word(vm.cfg.Sched.Intn(int(n) + 1))
				if d > 0 {
					vm.setStatus(t, statusSleeping)
					t.wakeAt = vm.step + d
				}
			}
			fr.pc++

		case cCheckpoint:
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
			vm.ckptExecs[in.aux]++
			if vm.sink != nil {
				vm.sink.Record(obs.Event{
					Step: vm.step, Kind: obs.KindCheckpoint,
					TID: int32(t.id), Site: in.site,
				})
			}
			fr.pc++

		case cRollback:
			site, slot := int(in.site), vm.prog.siteSlot(in.site)
			if t.jmp != nil && t.jmp.frameDepth < len(t.frames) &&
				t.retryCount(slot) < in.aImm {
				t.bumpRetry(slot)
				e := t.beginEpisode(slot, site, vm.step)
				if vm.sink != nil {
					if e.Retries == 1 {
						vm.sink.Record(obs.Event{
							Step: vm.step, Kind: obs.KindEpisodeBegin,
							TID: int32(t.id), Site: in.site,
						})
					}
					vm.sink.Record(obs.Event{
						Step: vm.step, Kind: obs.KindRollback,
						TID: int32(t.id), Site: in.site, Arg: e.Retries,
					})
				}
				vm.rollback(t)
				vm.stats.Rollbacks++
				if vm.yielder != nil {
					// A rollback is a yield: commit the picks taken so far,
					// let the scheduler demote t, and pick afresh next step.
					vm.settle()
					vm.yielder.Yield(t.id)
					vm.stayLeft, vm.stayGrant = 0, 0
				}
				fr = t.top()
				code = vm.prog.funcs[fr.fn].code
				break
			}
			// No active checkpoint or retries exhausted: fall through to the
			// real failure (the instruction after the rollback).
			fr.pc++

		case cFail:
			vm.fail(in.fkind, vm.posOf(fr, in), int(in.site), t.id, vm.textOf(fr, in))

		case cBrSite:
			// A branch with a positive site is a transformed failure check
			// with the convention Then = pass, Else = recover; passing
			// closes any open recovery episode for the site.
			if in.a(fr) != 0 {
				if in.site > 0 {
					vm.closeEpisode(t, int(in.site))
				}
				fr.pc = int(in.thenPC)
			} else {
				fr.pc = int(in.elsePC)
			}

		case cRet:
			ret := in.a(fr)
			t.frames = t.frames[:len(t.frames)-1]
			vm.recycleFrame(fr)
			// Returning out of the checkpoint's frame invalidates it, exactly
			// like returning from the function that called setjmp.
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
				tid = -1 // no frame to resume; force a refetch next pick
				break
			}
			caller := t.top()
			if fr.retDst >= 0 {
				caller.regs[fr.retDst] = ret
			}
			fr = caller
			code = vm.prog.funcs[fr.fn].code

		default: // cUnimpl
			pos := vm.posOf(fr, in)
			vm.fail(mir.FailHang, pos, 0, t.id, fmt.Sprintf("unimplemented op %v", vm.prog.mod.At(pos).Op))
		}

		vm.step++
		executed = true
		if single {
			return true
		}
	}
}

// quantum runs a superblock quantum of thread tid, whose frame fr is at an
// eligible instruction that already has its pick, and returns the thread
// picked for the step after it: tid when the quantum ran into a
// scheduling-relevant instruction of its own, another thread when the
// scheduler switched. It reports false when the run stopped (a hang, or
// nothing left to pick).
func (vm *VM) quantum(tid int, fr *frame, max int64) (int, bool) {
	vm.sbQuanta++
	code := vm.prog.funcs[fr.fn].code
	if vm.rnd != nil && vm.waiting == 0 && len(vm.live) == 1 {
		// One live thread, none waiting, and no eligible instruction can
		// spawn, wake or end a thread: every pick in the quantum is tid.
		// Draw nothing per instruction; advance the stream and the flight
		// ring by the whole stay at the exit.
		step := vm.step
		var stay int64
		hang := ""
		for {
			n := execLocal(code, fr, vm.quantumBudget(step, max))
			// The n instructions own the picks of the steps after them,
			// except the last when a hang check stops the run there.
			picks := n
			if hang = vm.hangAt(step+n, max); hang != "" {
				picks--
			}
			if vm.sink != nil {
				vm.recordPicks(tid, step+1, step+1+picks)
			}
			stay += picks
			step += n
			if hang != "" || !sbEligible(&code[fr.pc]) {
				break
			}
		}
		vm.sbInstrs += step - vm.step
		vm.step = step
		vm.rnd.Skip(stay)
		vm.noteFlightRun(tid, stay)
		if hang != "" {
			vm.fail(mir.FailHang, mir.Pos{}, 0, -1, hang)
			return tid, false
		}
		return tid, true
	}
	// More than one live thread, some thread waiting, or a scheduler other
	// than Random: take a full pick after each batch so draws, wake-ups,
	// timeouts and scheduler state advance exactly as under StepOnce. A
	// batch is one instruction, or, inside a stay budget, one past the
	// picks the budget still grants; a valid budget is always tid's, since
	// the pick that granted it chose tid and only tid has run since.
	for {
		budget := int64(1)
		if vm.rnd == nil && vm.stayLeft > 0 && vm.gen == vm.stayGen {
			budget += min(vm.stayLeft, vm.quantumBudget(vm.step, max)-1)
		}
		n := execLocal(code, fr, budget)
		if vm.sink != nil {
			vm.recordPicks(tid, vm.step+1, vm.step+n)
		}
		vm.stayLeft -= n - 1
		vm.step += n
		vm.sbInstrs += n
		if hang := vm.hangAt(vm.step, max); hang != "" {
			vm.fail(mir.FailHang, mir.Pos{}, 0, -1, hang)
			return tid, false
		}
		nt, ok := vm.stayTID, true
		if vm.rnd != nil || !vm.stay() {
			nt, ok = vm.pickThread()
		}
		if !ok {
			return tid, false
		}
		if vm.sink != nil {
			vm.sink.Record(obs.Event{
				Step: vm.step, Kind: obs.KindSchedPick, TID: int32(nt),
			})
		}
		if nt != tid || !sbEligible(&code[fr.pc]) {
			return nt, true
		}
	}
}

// execLocal runs the scheduling-irrelevant instructions of code from
// fr.pc — at most budget of them, stopping before the first one that is
// not sbEligible — and returns how many it ran. It is the only
// implementation of every eligible opcode. The pc, registers and slots
// stay in locals throughout: an eligible instruction never calls, returns,
// fails or touches the VM, so the loop makes no call and checks no VM
// state per instruction; the caller does the step accounting, scheduling
// and hang checks once per call.
func execLocal(code []cinstr, fr *frame, budget int64) int64 {
	pc, regs, slots := fr.pc, fr.regs, fr.slots
	n := int64(0)
	for ; n < budget; n++ {
		in := &code[pc]
		switch in.op {
		case cConst, cAddrG:
			regs[in.dst] = in.aImm
		case cAddRR:
			regs[in.dst] = regs[in.aReg] + regs[in.bReg]
		case cSubRR:
			regs[in.dst] = regs[in.aReg] - regs[in.bReg]
		case cMulRR:
			regs[in.dst] = regs[in.aReg] * regs[in.bReg]
		case cDivRR:
			regs[in.dst] = div(regs[in.aReg], regs[in.bReg])
		case cModRR:
			regs[in.dst] = mod(regs[in.aReg], regs[in.bReg])
		case cAndRR:
			regs[in.dst] = regs[in.aReg] & regs[in.bReg]
		case cOrRR:
			regs[in.dst] = regs[in.aReg] | regs[in.bReg]
		case cXorRR:
			regs[in.dst] = regs[in.aReg] ^ regs[in.bReg]
		case cShlRR:
			regs[in.dst] = regs[in.aReg] << (uint64(regs[in.bReg]) & 63)
		case cShrRR:
			regs[in.dst] = regs[in.aReg] >> (uint64(regs[in.bReg]) & 63)
		case cEqRR:
			regs[in.dst] = b2w(regs[in.aReg] == regs[in.bReg])
		case cNeRR:
			regs[in.dst] = b2w(regs[in.aReg] != regs[in.bReg])
		case cLtRR:
			regs[in.dst] = b2w(regs[in.aReg] < regs[in.bReg])
		case cLeRR:
			regs[in.dst] = b2w(regs[in.aReg] <= regs[in.bReg])
		case cGtRR:
			regs[in.dst] = b2w(regs[in.aReg] > regs[in.bReg])
		case cGeRR:
			regs[in.dst] = b2w(regs[in.aReg] >= regs[in.bReg])
		case cAddRI:
			regs[in.dst] = regs[in.aReg] + in.bImm
		case cSubRI:
			regs[in.dst] = regs[in.aReg] - in.bImm
		case cMulRI:
			regs[in.dst] = regs[in.aReg] * in.bImm
		case cDivRI:
			regs[in.dst] = div(regs[in.aReg], in.bImm)
		case cModRI:
			regs[in.dst] = mod(regs[in.aReg], in.bImm)
		case cAndRI:
			regs[in.dst] = regs[in.aReg] & in.bImm
		case cOrRI:
			regs[in.dst] = regs[in.aReg] | in.bImm
		case cXorRI:
			regs[in.dst] = regs[in.aReg] ^ in.bImm
		case cShlRI:
			regs[in.dst] = regs[in.aReg] << (uint64(in.bImm) & 63)
		case cShrRI:
			regs[in.dst] = regs[in.aReg] >> (uint64(in.bImm) & 63)
		case cEqRI:
			regs[in.dst] = b2w(regs[in.aReg] == in.bImm)
		case cNeRI:
			regs[in.dst] = b2w(regs[in.aReg] != in.bImm)
		case cLtRI:
			regs[in.dst] = b2w(regs[in.aReg] < in.bImm)
		case cLeRI:
			regs[in.dst] = b2w(regs[in.aReg] <= in.bImm)
		case cGtRI:
			regs[in.dst] = b2w(regs[in.aReg] > in.bImm)
		case cGeRI:
			regs[in.dst] = b2w(regs[in.aReg] >= in.bImm)
		case cBinIR:
			regs[in.dst] = in.bin.Eval(in.aImm, regs[in.bReg])
		case cLoadS:
			regs[in.dst] = slots[in.aux]
		case cStoreS:
			slots[in.aux] = regs[in.aReg]
		case cStoreSI:
			slots[in.aux] = in.aImm
		case cNop, cYield:
		case cJmp:
			pc = int(in.thenPC)
			continue
		case cBr:
			if regs[in.aReg] != 0 {
				pc = int(in.thenPC)
			} else {
				pc = int(in.elsePC)
			}
			continue
		// A fused latch retires its add, compare and branch at once when
		// the budget has room for all three, and only the add otherwise:
		// the compare and the branch then run from their own slots.
		case cAddEqBr:
			v := regs[in.aReg] + in.bImm
			regs[in.dst] = v
			if budget-n >= 3 {
				pc, n = latch(in, regs, v == in.aImm), n+2
				continue
			}
		case cAddNeBr:
			v := regs[in.aReg] + in.bImm
			regs[in.dst] = v
			if budget-n >= 3 {
				pc, n = latch(in, regs, v != in.aImm), n+2
				continue
			}
		case cAddLtBr:
			v := regs[in.aReg] + in.bImm
			regs[in.dst] = v
			if budget-n >= 3 {
				pc, n = latch(in, regs, v < in.aImm), n+2
				continue
			}
		case cAddLeBr:
			v := regs[in.aReg] + in.bImm
			regs[in.dst] = v
			if budget-n >= 3 {
				pc, n = latch(in, regs, v <= in.aImm), n+2
				continue
			}
		case cAddGtBr:
			v := regs[in.aReg] + in.bImm
			regs[in.dst] = v
			if budget-n >= 3 {
				pc, n = latch(in, regs, v > in.aImm), n+2
				continue
			}
		case cAddGeBr:
			v := regs[in.aReg] + in.bImm
			regs[in.dst] = v
			if budget-n >= 3 {
				pc, n = latch(in, regs, v >= in.aImm), n+2
				continue
			}
		default:
			fr.pc = pc
			return n
		}
		pc++
	}
	fr.pc = pc
	return n
}

// latch retires a fused latch's compare, whose result is c, and branch:
// it stores c in the compare's destination and returns the branch target.
func latch(in *cinstr, regs []mir.Word, c bool) int {
	if c {
		regs[in.aux] = 1
		return int(in.thenPC)
	}
	regs[in.aux] = 0
	return int(in.elsePC)
}

// div and mod are mir.BinOp.Eval's division: zero for a zero divisor.
func div(x, y mir.Word) mir.Word {
	if y == 0 {
		return 0
	}
	return x / y
}

func mod(x, y mir.Word) mir.Word {
	if y == 0 {
		return 0
	}
	return x % y
}

// b2w is a comparison's result: 1 or 0.
func b2w(b bool) mir.Word {
	if b {
		return 1
	}
	return 0
}

// recordPicks records the sink's KindSchedPick events of tid for the
// steps from..to-1: the picks a batch of execLocal took.
func (vm *VM) recordPicks(tid int, from, to int64) {
	for s := from; s < to; s++ {
		vm.sink.Record(obs.Event{Step: s, Kind: obs.KindSchedPick, TID: int32(tid)})
	}
}

// posOf returns the source position of in, the instruction at fr.pc: its
// block is compiled in, and its index is the pc's offset from the block's
// start.
func (vm *VM) posOf(fr *frame, in *cinstr) mir.Pos {
	start := vm.prog.funcs[fr.fn].blockStart[in.blk]
	return mir.Pos{Fn: fr.fn, Block: int(in.blk), Index: fr.pc - int(start)}
}

// textOf returns the text of in, the output, assert or fail instruction at
// fr.pc, from its source instruction.
func (vm *VM) textOf(fr *frame, in *cinstr) string {
	pos := vm.posOf(fr, in)
	f := &vm.prog.mod.Functions[pos.Fn]
	return f.Text(&f.Blocks[pos.Block].Instrs[pos.Index])
}

func (vm *VM) result() *Result {
	vm.settle()
	r := &Result{
		Completed: vm.done && vm.failure == nil,
		Failure:   vm.failure,
		ExitCode:  vm.exit,
		Output:    vm.output,
		Stats:     vm.stats,
	}
	r.Stats.Steps = vm.step
	// Surface episodes still open at program end as unrecovered.
	for _, t := range vm.threads {
		for _, e := range t.episodes {
			if e != nil {
				r.Stats.Episodes = append(r.Stats.Episodes, *e)
			}
		}
	}
	sort.Slice(r.Stats.Episodes, func(i, j int) bool {
		return r.Stats.Episodes[i].Start < r.Stats.Episodes[j].Start
	})
	if !vm.counted {
		// Count each run once even if result() is built repeatedly
		// (Finish may be called more than once on a StepOnce-driven VM).
		vm.counted = true
		if reg := metricsRegistry.Load(); reg != nil {
			recordRunMetrics(reg, r)
			recordSuperblockMetrics(reg, vm.sbQuanta, vm.sbInstrs)
		}
	}
	return r
}

// CheckpointExecs returns the executions so far per checkpoint site id of
// every checkpoint that ran, or nil when none did. Table 6 splits dynamic
// reexecution points by the site class they serve with it. The map is
// built on each call, so runs that do not ask pay nothing for it.
func (vm *VM) CheckpointExecs() map[int]int64 {
	var m map[int]int64
	for i, n := range vm.ckptExecs {
		if n == 0 {
			continue
		}
		if m == nil {
			m = map[int]int64{}
		}
		m[int(vm.prog.ckptSites[i])] = n
	}
	return m
}

// spawn creates a thread running function fi with the given arguments.
func (vm *VM) spawn(fi int, args []mir.Word) int {
	t := &thread{id: vm.nextTID}
	vm.nextTID++
	fr := vm.newFrame(fi, -1)
	copy(fr.regs, args)
	t.frames = append(t.frames, fr)
	vm.threads = append(vm.threads, t)
	vm.gen++
	vm.live = append(vm.live, t.id) // ids ascend, so append keeps order
	vm.liveT = append(vm.liveT, t)
	vm.stats.ThreadsSpawned++
	if vm.sink != nil {
		vm.sink.Record(obs.Event{
			Step: vm.step, Kind: obs.KindThreadSpawn, TID: int32(t.id),
		})
	}
	return t.id
}

// noteFlight reports one devirtualized-fast-path pick to the flight ring;
// the disabled path is one nil check (same contract as sink/san).
func (vm *VM) noteFlight(tid int) {
	if vm.flight != nil {
		vm.flight.Note(int32(tid))
	}
}

// noteFlightRun reports n consecutive picks of tid (a superblock
// quantum's stay) to the flight ring in one RLE update.
func (vm *VM) noteFlightRun(tid int, n int64) {
	if vm.flight != nil {
		vm.flight.NoteRun(int32(tid), n)
	}
}

// stay takes one pick from the stay budget, reporting whether it could:
// while nothing that decides the pick has changed since the scheduler
// granted the budget, the pick is stayTID and costs a counter check.
// Callers fall back to pickThread; runs under sched.Random call
// pickThread directly.
func (vm *VM) stay() bool {
	if vm.stayLeft > 0 && vm.gen == vm.stayGen {
		vm.stayLeft--
		return true
	}
	return false
}

// settle commits the picks taken from the stay budget to the scheduler
// with one Advance, leaving it exactly where one Pick per pick would have.
// It runs before every real Pick, before a rollback yields, when the
// result is built and around snapshots.
func (vm *VM) settle() {
	if owed := vm.stayGrant - vm.stayLeft; owed > 0 {
		vm.stayer.Advance(vm.stayTID, owed)
		vm.stayGrant = vm.stayLeft
	}
}

// schedPick asks the scheduler to choose from runnable, a set that stays
// exact while gen holds and the step is below until. For a Stayer it first
// settles the budget, then asks once how long the choice holds.
func (vm *VM) schedPick(runnable []int, until int64) int {
	if vm.stayer == nil {
		return vm.cfg.Sched.Pick(runnable, vm.step)
	}
	vm.settle()
	nt := vm.cfg.Sched.Pick(runnable, vm.step)
	// Every pick advances the step by one while gen holds (AdvanceSteps
	// bumps gen), so the set's horizon is a count of picks.
	vm.stayTID, vm.stayGen = nt, vm.gen
	vm.stayLeft = min(vm.stayer.Stay(nt, runnable, vm.step+1), until-vm.step-1)
	vm.stayGrant = vm.stayLeft
	return nt
}

// pickThread collects runnable threads (waking sleepers and expiring lock
// timeouts) and asks the scheduler to choose. When nothing can run it
// reports a deadlock or ends the program.
//
// The live list is maintained incrementally by setStatus, so when no live
// thread waits the list is handed to the scheduler as-is — no scan at all.
// Only when some thread sleeps or blocks does the (live-only) scan run to
// wake sleepers, expire lock timeouts and resolve joins, and its result is
// reused until gen moves or the step reaches the scan's horizon. Every
// path produces exactly the runnable set the historical all-threads rescan
// did: membership and (ascending id) order are identical, so seeded
// schedules are unchanged.
func (vm *VM) pickThread() (int, bool) {
	for {
		if vm.waiting == 0 {
			if len(vm.live) == 0 {
				// Every thread is done but main never returned? (Cannot
				// happen: main returning sets vm.done.) Treat as end.
				return 0, false
			}
			if vm.rnd != nil {
				nt := vm.live[vm.rnd.Intn(len(vm.live))]
				vm.noteFlight(nt)
				return nt, true
			}
			return vm.schedPick(vm.live, math.MaxInt64), true
		}
		if vm.gen == vm.scanGen && vm.step < vm.scanUntil {
			return vm.pickFrom(vm.runnableBuf, vm.scanUntil), true
		}
		runnable := vm.runnableBuf[:0]
		var minWake int64 = -1
		anyLive := false
		for _, t := range vm.liveT {
			switch t.status {
			case statusRunnable:
				runnable = append(runnable, t.id)
			case statusSleeping:
				anyLive = true
				if t.wakeAt <= vm.step {
					vm.setStatus(t, statusRunnable)
					runnable = append(runnable, t.id)
				} else if minWake < 0 || t.wakeAt < minWake {
					minWake = t.wakeAt
				}
			case statusBlockedLock:
				anyLive = true
				mu := vm.lcks.get(t.blockAddr)
				waited := vm.step - t.blockedSince
				switch {
				case !mu.held:
					// Lock available: the thread is schedulable; it
					// acquires when picked.
					runnable = append(runnable, t.id)
				case t.blockTimeout > 0 && waited >= t.blockTimeout:
					// Timed lock expired: schedulable to observe timeout.
					runnable = append(runnable, t.id)
				case t.blockTimeout > 0:
					// A pending timeout is a future wake event; without
					// this, a system quiesced behind a timed lock would be
					// misreported as deadlocked.
					if wake := t.blockedSince + t.blockTimeout; minWake < 0 || wake < minWake {
						minWake = wake
					}
				}
			case statusBlockedJoin:
				anyLive = true
				if vm.threadByID(t.joinTarget) == nil ||
					vm.threadByID(t.joinTarget).status == statusDone {
					vm.setStatus(t, statusRunnable)
					runnable = append(runnable, t.id)
				}
			case statusBlockedCond:
				// An armed waiter is woken directly by signal/broadcast
				// (execSignal moves it to statusBlockedLock); the scan only
				// has to expire timed waits.
				anyLive = true
				if t.blockTimeout > 0 {
					if vm.step-t.blockedSince >= t.blockTimeout {
						runnable = append(runnable, t.id)
					} else if wake := t.blockedSince + t.blockTimeout; minWake < 0 || wake < minWake {
						minWake = wake
					}
				}
			case statusBlockedSend:
				anyLive = true
				ch := vm.chans.peek(t.blockAddr)
				waited := vm.step - t.blockedSince
				switch {
				case ch == nil || !ch.full() || ch.closed:
					// Room appeared (or a close makes the send fail): the
					// send is schedulable; it completes when picked.
					runnable = append(runnable, t.id)
				case t.blockTimeout > 0 && waited >= t.blockTimeout:
					runnable = append(runnable, t.id)
				case t.blockTimeout > 0:
					if wake := t.blockedSince + t.blockTimeout; minWake < 0 || wake < minWake {
						minWake = wake
					}
				}
			case statusBlockedRecv:
				anyLive = true
				ch := vm.chans.peek(t.blockAddr)
				if ch == nil || !ch.empty() || ch.closed {
					runnable = append(runnable, t.id)
				}
			}
		}
		vm.runnableBuf = runnable
		if len(runnable) > 0 {
			// The scan's own wake-ups moved gen; the set is exact from here.
			vm.scanGen, vm.scanUntil = vm.gen, math.MaxInt64
			if minWake >= 0 {
				vm.scanUntil = minWake
			}
			return vm.pickFrom(runnable, vm.scanUntil), true
		}
		if !anyLive {
			return 0, false
		}
		if minWake > vm.step {
			// Only sleepers: advance virtual time to the next wake.
			vm.step = minWake
			continue
		}
		// Threads exist but none can ever run: all blocked on held locks,
		// joins, un-signalled condvars or full/empty channels — a
		// deadlock, observed as a hang by the user.
		vm.fail(mir.FailHang, mir.Pos{}, 0, -1,
			fmt.Sprintf("no runnable threads at step %d (deadlock)", vm.step))
		return 0, false
	}
}

// pickFrom picks from a scanned runnable set that holds until step until.
func (vm *VM) pickFrom(runnable []int, until int64) int {
	if vm.rnd != nil {
		nt := runnable[vm.rnd.Intn(len(runnable))]
		vm.noteFlight(nt)
		return nt
	}
	return vm.schedPick(runnable, until)
}

func (vm *VM) threadByID(id int) *thread {
	if id < 0 || id >= len(vm.threads) {
		return nil
	}
	return vm.threads[id]
}

func (vm *VM) fail(kind mir.FailKind, pos mir.Pos, site, tid int, msg string) {
	vm.failure = &Failure{
		Kind: kind, Pos: pos, Site: site, Thread: tid, Step: vm.step, Msg: msg,
	}
	if vm.sink != nil {
		vm.sink.Record(obs.Event{
			Step: vm.step, Kind: obs.KindFailure,
			TID: int32(tid), Site: int32(site), Text: msg,
		})
	}
}

// rollback performs the longjmp: compensate region acquisitions, unwind
// callee frames, restore the checkpoint frame's register image and jump to
// the instruction after the checkpoint.
func (vm *VM) rollback(t *thread) {
	for _, ce := range t.takeComp() {
		switch ce.kind {
		case compAlloc:
			vm.mem.free(ce.addr)
			vm.stats.CompFrees++
		case compLock:
			mu := vm.lcks.get(ce.addr)
			if mu.held && mu.holder == t.id {
				vm.releaseLock(mu)
				if vm.san != nil {
					vm.san.LockRelease(t.id, ce.addr)
				}
			}
			vm.stats.CompUnlocks++
		}
	}
	jb := t.jmp
	for i := jb.frameDepth + 1; i < len(t.frames); i++ {
		vm.recycleFrame(&t.frames[i])
	}
	t.frames = t.frames[:jb.frameDepth+1]
	fr := t.top()
	copy(fr.regs, jb.regs)
	fr.pc = jb.pc
}
