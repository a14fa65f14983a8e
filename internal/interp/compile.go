package interp

import (
	"sync"

	"conair/internal/mir"
)

// This file is the ahead-of-time compilation stage between mir.Module and
// the VM. Each function is lowered exactly once into a flat code array of
// pre-resolved instructions (cinstr):
//
//   - jump targets are absolute flat indices ("pc") instead of
//     (block, index) pairs, so branches are a single assignment;
//   - operands are pre-bound to a register slot or an immediate, removing
//     the per-step eval() kind switch (OperandNone lowers to immediate 0,
//     matching eval's historical behaviour);
//   - every cinstr carries its source block index, so the failure and
//     sanitizer paths rebuild its mir.Pos in O(1) from the pc and the
//     block's start (VM.posOf); texts and call arguments, which only
//     cold paths and calls read, live outside the code stream;
//   - scheduling-irrelevant instructions (sbEligible) get opcodes of
//     their own, numbered as one contiguous low range of cop, so that
//     eligibility is one compare; execLocal's switch is their only
//     implementation, and the run loop hands it a whole superblock — a
//     maximal straight-line run of such instructions — as one scheduler
//     quantum, while its dispatch switch handles only the scheduling-
//     relevant rest. Binary operators with a register left operand are
//     specialized per operator, so the hot arithmetic never calls
//     mir.BinOp.Eval;
//   - a loop latch — an add-immediate, a compare-with-immediate of its
//     result and a plain branch on the comparison, in one block — is
//     fused into one superinstruction (cAddEqBr to cAddGeBr, see
//     fuseLatches) that retires all three in one dispatch and counts as
//     three instructions. Only the add's slot is rewritten: the compare
//     and the branch keep their own slots and opcodes.
//
// Source instructions map 1:1 onto code slots, and neither form changes
// observable behaviour: the scheduler's stream advances one decision per
// executed instruction (a one-thread superblock quantum advances it in
// bulk with sched.Random.Skip; see runLoop). The fused latch keeps the
// mapping too. Control enters a block only at its head, so nothing jumps
// to the compare or the branch; they are reached only by stepping past
// the add, and that is exactly what a snapshot, StepOnce or a budget too
// small for all three does: execLocal then retires the add alone, and
// the compare and the branch run from their own slots as before.

// cop enumerates compiled opcodes. The scheduling-irrelevant ones come
// first: every opcode below cLoadG is sbEligible, and execLocal runs it.
// Binary operators with a register left operand get one opcode per
// operator and right-operand shape, in mir.BinOp order (cAddRR+cop(bin),
// cAddRI+cop(bin)), so the executor dispatches straight to the
// arithmetic; a bin with an immediate left operand is rare enough to stay
// generic (cBinIR), and one with two immediates is constant-folded to
// cConst at compile time.
type cop uint8

const (
	cConst cop = iota // dst = aImm
	cAddrG            // dst = aImm, the global's address

	cAddRR // dst = regs[a] <op> regs[b], one opcode per mir.BinOp
	cSubRR
	cMulRR
	cDivRR
	cModRR
	cAndRR
	cOrRR
	cXorRR
	cShlRR
	cShrRR
	cEqRR
	cNeRR
	cLtRR
	cLeRR
	cGtRR
	cGeRR

	cAddRI // dst = regs[a] <op> bImm, one opcode per mir.BinOp
	cSubRI
	cMulRI
	cDivRI
	cModRI
	cAndRI
	cOrRI
	cXorRI
	cShlRI
	cShrRI
	cEqRI
	cNeRI
	cLtRI
	cLeRI
	cGtRI
	cGeRI

	cBinIR   // dst = aImm <bin> regs[b]
	cLoadS   // dst = slots[aux]
	cStoreS  // slots[aux] = regs[a]
	cStoreSI // slots[aux] = aImm
	cNop
	cYield
	cJmp
	cBr // a plain branch on a register; a constant one lowers to cJmp

	// A fused loop latch, one opcode per comparison in mir.BinOp order
	// (cAddEqBr+cop(cmp-mir.BinEq)): dst = regs[a] + bImm, then
	// regs[aux] = dst <cmp> aImm, then a branch on it to thenPC/elsePC.
	cAddEqBr
	cAddNeBr
	cAddLtBr
	cAddLeBr
	cAddGtBr
	cAddGeBr

	// Scheduling-relevant opcodes, dispatched by runLoop's switch.
	cLoadG
	cStoreG
	cLoad
	cStore
	cAlloc
	cFree
	cLock
	cTimedLock
	cUnlock
	cCall
	cSpawn
	cJoin
	cOutput
	cAssert
	cSleep
	cSleepRand
	cCheckpoint // aux = the checkpoint's counter (Program.ckptSites)
	cRollback
	cFail
	cBrSite // a branch at a failure site: passing closes recovery episodes
	cRet
	// Synchronization extensions: all scheduling-relevant (they block,
	// wake threads, fail, or touch shared state).
	cWait   // a=condvar, b=mutex, aux=timeout (0 = untimed)
	cSignal // a=condvar
	cBroadcast
	cChSend  // a=channel, b=value, aux=timeout (0 = untimed)
	cChRecv  // a=channel
	cChClose // a=channel
	cCAS     // a=address, b=expected, the one argument = replacement
	cUnimpl  // unknown source opcode; fails at execution time like exec did
)

// carg is a pre-resolved call/spawn argument: a register slot, or an
// immediate when reg is negative.
type carg struct {
	reg int32
	imm mir.Word
}

// cinstr is one compiled instruction, 56 bytes. Which fields are
// meaningful depends on op; field use mirrors mir.Instr with operands
// pre-bound:
//
//	aReg/aImm, bReg/bImm — generic operands (reg slot, or imm when reg < 0);
//	                       aImm doubles as the const value (cConst, cAddrG)
//	                       and the rollback retry bound (cRollback); bImm
//	                       doubles as the timedlock timeout (cTimedLock);
//	aux                  — global, slot or callee index, or a checkpoint's
//	                       counter; doubles as the wait/chsend timeout
//	                       (their b slot is occupied) and a fused latch's
//	                       compare destination, whose immediate is aImm;
//	thenPC/elsePC        — absolute flat branch targets; for call, spawn
//	                       and cas they double as the offset and length of
//	                       the arguments in fcode.args (fcode.argsOf);
//	site                 — failure-site id;
//	blk                  — the source block, for VM.posOf and VM.textOf;
//	bin                  — the binary operator of cBinIR.
type cinstr struct {
	op    cop
	bin   mir.BinOp
	akind mir.AssertKind
	fkind mir.FailKind

	dst    int32
	aReg   int32
	bReg   int32
	aux    int32
	thenPC int32
	elsePC int32
	site   int32
	blk    int32

	aImm mir.Word
	bImm mir.Word
}

// a resolves the first generic operand against fr.
func (in *cinstr) a(fr *frame) mir.Word {
	if in.aReg >= 0 {
		return fr.regs[in.aReg]
	}
	return in.aImm
}

// b resolves the second generic operand against fr.
func (in *cinstr) b(fr *frame) mir.Word {
	if in.bReg >= 0 {
		return fr.regs[in.bReg]
	}
	return in.bImm
}

// value resolves a pre-bound argument against fr.
func (a *carg) value(fr *frame) mir.Word {
	if a.reg >= 0 {
		return fr.regs[a.reg]
	}
	return a.imm
}

// fcode is one compiled function: its flat code stream plus the flat offset
// of each source block (blockStart[b] is the pc of block b's first
// instruction) and the pre-bound call, spawn and cas arguments.
type fcode struct {
	code       []cinstr
	blockStart []int32
	args       []carg
}

// Program is a compiled module: one fcode per function, in function order.
// A Program is immutable after Compile and safe to share across VMs.
type Program struct {
	mod   *mir.Module
	funcs []fcode
	// arenaWords sizes a VM's first frame-arena chunk: its checkpoint
	// counters and one frame of every function (pools reuse frames),
	// capped at arenaChunk.
	arenaWords int
	// nSites and sparseSites number the rollback sites for the per-thread
	// retry and episode tables; see siteSlot.
	nSites      int32
	sparseSites map[int32]int32
	// ckptSites holds the site id of each checkpoint counter: a VM counts
	// the executions of a cCheckpoint in its counter aux, one per
	// distinct site id.
	ckptSites []int32
}

// maxDenseSite bounds the rollback site ids that index the per-thread
// tables directly.
const maxDenseSite = 1 << 16

// siteSlot returns the index of failure site site in the per-thread retry
// and episode tables, or -1 when no rollback carries the site (no episode
// can then be open for it). Hardened programs number their sites densely
// from 1, so the index is the id itself; a program with a negative or very
// large rollback site id, which only hand-written text can have, numbers
// its sites through a map instead.
func (p *Program) siteSlot(site int32) int {
	if p.sparseSites != nil {
		if i, ok := p.sparseSites[site]; ok {
			return int(i)
		}
		return -1
	}
	if site >= 0 && site < p.nSites {
		return int(site)
	}
	return -1
}

// numberSites fills nSites, or sparseSites when the rollback site ids are
// not all in [0, maxDenseSite).
func (p *Program) numberSites() {
	lo, hi := int32(0), int32(-1)
	for fi := range p.funcs {
		for _, c := range p.funcs[fi].code {
			if c.op == cRollback {
				lo, hi = min(lo, c.site), max(hi, c.site)
			}
		}
	}
	if lo >= 0 && hi < maxDenseSite {
		p.nSites = hi + 1
		return
	}
	p.sparseSites = map[int32]int32{}
	for fi := range p.funcs {
		for _, c := range p.funcs[fi].code {
			if _, ok := p.sparseSites[c.site]; c.op == cRollback && !ok {
				p.sparseSites[c.site] = int32(len(p.sparseSites))
			}
		}
	}
}

// numberCheckpoints gives every distinct checkpoint site id a dense
// counter and stores its index in the checkpoints' aux.
func (p *Program) numberCheckpoints() {
	var index map[int32]int32
	for fi := range p.funcs {
		code := p.funcs[fi].code
		for pc := range code {
			c := &code[pc]
			if c.op != cCheckpoint {
				continue
			}
			i, ok := index[c.site]
			if !ok {
				if index == nil {
					index = map[int32]int32{}
				}
				i = int32(len(p.ckptSites))
				index[c.site] = i
				p.ckptSites = append(p.ckptSites, c.site)
			}
			c.aux = i
		}
	}
}

var (
	progMu    sync.Mutex
	progCache = map[*mir.Module]*Program{}
)

// progCacheMax bounds the compiled-program cache. Eviction clears the whole
// cache: entries are keyed by module pointer, so there is no meaningful
// recency order to preserve, and steady-state workloads (the prepared-bug
// cache, mirgen sweeps) stay far below the bound anyway.
const progCacheMax = 1024

// Compile lowers the module to its flat compiled form, memoizing by module
// pointer. Callers must treat a module as immutable once it has been
// compiled or run — the rest of the repository already does (transform
// Clones before rewriting; bugs and mirgen build fresh modules). The
// cache holds every module it compiled until the next clear-all eviction;
// it is the last process-wide cache keyed by module (the printed text and
// hash live on the module, see mir.Module.Text).
func Compile(mod *mir.Module) *Program {
	progMu.Lock()
	p := progCache[mod]
	if p == nil {
		if len(progCache) >= progCacheMax {
			clear(progCache)
		}
		p = compileModule(mod)
		progCache[mod] = p
	}
	progMu.Unlock()
	return p
}

func compileModule(mod *mir.Module) *Program {
	p := &Program{mod: mod, funcs: make([]fcode, len(mod.Functions))}
	for fi := range mod.Functions {
		p.funcs[fi] = compileFunc(mod, fi)
		f := &mod.Functions[fi]
		p.arenaWords += f.NumRegs() + len(f.SlotNames)
	}
	p.numberSites()
	p.numberCheckpoints()
	p.arenaWords = min(p.arenaWords+len(p.ckptSites), arenaChunk)
	return p
}

// lowerOperand pre-binds one operand: a register slot index, or -1 plus an
// immediate. OperandNone becomes immediate 0, exactly what eval returned.
func lowerOperand(o mir.Operand) (int32, mir.Word) {
	switch o.Kind {
	case mir.OperandReg:
		return o.Reg, 0
	case mir.OperandImm:
		return -1, o.Imm
	}
	return -1, 0
}

// argsOf returns the pre-bound arguments of a call, spawn or cas.
func (fc *fcode) argsOf(in *cinstr) []carg {
	return fc.args[in.thenPC : in.thenPC+in.elsePC]
}

func compileFunc(mod *mir.Module, fi int) fcode {
	fc := lowerFunc(mod, fi)
	fuseLatches(fc.code)
	return fc
}

// lowerFunc lowers every instruction of function fi to its own slot.
func lowerFunc(mod *mir.Module, fi int) fcode {
	f := &mod.Functions[fi]
	offs := f.BlockOffsets()
	fc := fcode{code: make([]cinstr, 0, f.NumInstrs()), blockStart: offs}
	for b := range f.Blocks {
		for i := range f.Blocks[b].Instrs {
			fc.code = append(fc.code, fc.lower(f, &f.Blocks[b].Instrs[i], int32(b)))
		}
	}
	return fc
}

// fuseLatches rewrites the head of every loop latch in code: a cAddRI at
// pc, a compare-with-immediate at pc+1 that reads the add's dst, and a
// plain cBr at pc+2 on the compare's dst, all in one block. The add's slot
// becomes the fused opcode of the compare's operator; it keeps the add's
// dst, aReg and bImm, takes the compare's dst in aux and its immediate in
// aImm, and the branch's targets. The compare and branch slots are left
// as they are (see the file comment). A site-tagged branch is a cBrSite
// and never fuses: it closes recovery episodes on the dispatch switch.
func fuseLatches(code []cinstr) {
	for pc := 0; pc+2 < len(code); pc++ {
		add, cmp, br := &code[pc], &code[pc+1], &code[pc+2]
		if add.op != cAddRI || cmp.op < cEqRI || cmp.op > cGeRI || cmp.aReg != add.dst ||
			br.op != cBr || br.aReg != cmp.dst || add.blk != br.blk {
			continue
		}
		add.op = cAddEqBr + (cmp.op - cEqRI)
		add.aux, add.aImm = cmp.dst, cmp.bImm
		add.thenPC, add.elsePC = br.thenPC, br.elsePC
	}
}

// lower translates in, an instruction of f in block blk, into its
// compiled form, appending its arguments to fc.args.
func (fc *fcode) lower(f *mir.Function, in *mir.Instr, blk int32) cinstr {
	offs := fc.blockStart
	c := cinstr{
		dst:  in.Dst,
		site: in.Site,
		blk:  blk,
	}
	c.aReg, c.aImm = lowerOperand(in.A)
	c.bReg, c.bImm = lowerOperand(in.B)

	switch in.Op {
	case mir.OpConst:
		c.op, c.aImm, c.aReg = cConst, in.Imm, -1
	case mir.OpBin:
		switch {
		case in.Bin > mir.BinGe:
			// mir.BinOp.Eval gives 0 for an operator it does not know.
			c.op, c.aImm, c.aReg, c.bReg = cConst, 0, -1, -1
		case c.aReg >= 0 && c.bReg >= 0:
			c.op = cAddRR + cop(in.Bin)
		case c.aReg >= 0:
			c.op = cAddRI + cop(in.Bin)
		case c.bReg >= 0:
			c.op, c.bin = cBinIR, in.Bin
		default:
			// Both operands immediate: fold at compile time.
			c.op, c.aImm, c.bImm = cConst, in.Bin.Eval(c.aImm, c.bImm), 0
		}
	case mir.OpLoadG:
		c.op, c.aux = cLoadG, in.Aux
	case mir.OpStoreG:
		c.op, c.aux = cStoreG, in.Aux
	case mir.OpAddrG:
		c.op, c.aImm = cAddrG, globalAddr(int(in.Aux))
	case mir.OpLoad:
		c.op = cLoad
	case mir.OpStore:
		c.op = cStore
	case mir.OpLoadS:
		c.op, c.aux = cLoadS, in.Aux
	case mir.OpStoreS:
		c.op, c.aux = cStoreS, in.Aux
		if c.aReg < 0 {
			c.op = cStoreSI
		}
	case mir.OpAlloc:
		c.op = cAlloc
	case mir.OpFree:
		c.op = cFree
	case mir.OpLock:
		c.op = cLock
	case mir.OpTimedLock:
		c.op, c.bReg, c.bImm = cTimedLock, -1, in.Imm
	case mir.OpUnlock:
		c.op = cUnlock
	case mir.OpCall:
		c.op, c.aux = cCall, in.Aux
		fc.lowerArgs(&c, f.Args(in))
	case mir.OpSpawn:
		c.op, c.aux = cSpawn, in.Aux
		fc.lowerArgs(&c, f.Args(in))
	case mir.OpJoin:
		c.op = cJoin
	case mir.OpOutput:
		c.op = cOutput
	case mir.OpAssert:
		c.op, c.akind = cAssert, in.AssertKind
	case mir.OpYield:
		c.op = cYield
	case mir.OpSleep:
		c.op = cSleep
	case mir.OpSleepRand:
		c.op = cSleepRand
	case mir.OpNop:
		c.op = cNop
	case mir.OpCheckpoint:
		c.op = cCheckpoint
	case mir.OpRollback:
		c.op, c.aImm, c.aReg = cRollback, in.Imm, -1
	case mir.OpFail:
		c.op, c.fkind = cFail, in.FailKind
	case mir.OpBr:
		c.op, c.thenPC, c.elsePC = cBr, offs[in.Aux], offs[in.Else]
		switch {
		case in.Site != 0:
			c.op = cBrSite
		case c.aReg < 0:
			// A constant condition: the target is fixed at compile time.
			c.op = cJmp
			if c.aImm == 0 {
				c.thenPC = c.elsePC
			}
		}
	case mir.OpJmp:
		c.op, c.thenPC = cJmp, offs[in.Aux]
	case mir.OpRet:
		c.op = cRet
	case mir.OpWait:
		c.op, c.aux = cWait, int32(in.Imm)
	case mir.OpSignal:
		c.op = cSignal
	case mir.OpBroadcast:
		c.op = cBroadcast
	case mir.OpChSend:
		c.op, c.aux = cChSend, int32(in.Imm)
	case mir.OpChRecv:
		c.op = cChRecv
	case mir.OpChClose:
		c.op = cChClose
	case mir.OpCAS:
		c.op = cCAS
		fc.lowerArgs(&c, f.Args(in))
	default:
		c.op = cUnimpl
	}
	return c
}

// lowerArgs pre-binds args into fc.args and points c at them.
func (fc *fcode) lowerArgs(c *cinstr, args []mir.Operand) {
	c.thenPC, c.elsePC = int32(len(fc.args)), int32(len(args))
	for _, a := range args {
		var ca carg
		ca.reg, ca.imm = lowerOperand(a)
		fc.args = append(fc.args, ca)
	}
}

// sbEligible reports whether a compiled instruction is scheduling-
// irrelevant: it cannot fail, cannot change any thread's status (and so
// cannot change the runnable set), touches no shared state (globals, heap,
// locks), emits no sink event, triggers no sanitizer hook, produces no
// output and consumes no scheduler randomness beyond the one decision every
// instruction costs. Executing a run of such instructions as one quantum is
// observably identical to stepping them individually, provided the
// scheduler's random stream still consumes one decision per instruction —
// which the run loop guarantees. A branch at a failure site closes
// recovery episodes and is therefore lowered to the relevant cBrSite.
func sbEligible(c *cinstr) bool { return c.op < cLoadG }
