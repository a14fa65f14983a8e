// Package mir defines a small SSA-flavoured intermediate representation
// ("MIR") that stands in for the LLVM bitcode ConAir operates on.
//
// MIR preserves exactly the instruction taxonomy that ConAir's analyses are
// defined over:
//
//   - virtual registers: per-frame mutable word-sized values whose writes are
//     idempotency-safe, because the recovery checkpoint saves the whole
//     register image (the stand-in for setjmp + -no-stack-slot-sharing);
//   - stack slots: per-frame named locals not held in registers; writes to
//     them are idempotency-destroying;
//   - globals and the heap: shared memory, addressed through a flat 64-bit
//     address space; writes are idempotency-destroying and loads through an
//     arbitrary pointer are potential segmentation-fault sites;
//   - calls, I/O (output), free and unlock: idempotency-destroying;
//   - alloc and lock/timedlock: permitted inside reexecution regions with
//     compensation (ConAir §4.1);
//   - condition variables (wait/signal/broadcast), bounded channels
//     (chsend/chrecv/chclose) and atomic compare-and-swap (cas): the
//     richer synchronization surface; all idempotency-destroying (each
//     consumes or publishes communication that reexecution cannot
//     replay), see class.go for the per-op rules.
//
// A module holds globals and functions; a function holds basic blocks of
// instructions, terminated by a branch, jump or return. Programs can be
// built with the Builder, parsed from the textual syntax (see parser.go) and
// printed back (see print.go). The op-descriptor table (optable.go) states
// which instruction fields each op uses. The interpreter in internal/interp
// executes modules directly; the transformer in internal/transform
// rewrites them.
package mir

import (
	"fmt"
	"sync/atomic"
)

// Word is the machine word of the MIR virtual machine. Every register,
// stack slot, global and heap cell holds one Word. Pointers are Words too:
// addresses index the interpreter's flat address space, where values below
// interp.LowerBound are invalid to dereference (mirroring ConAir's pointer
// sanity check, Figure 5c of the paper).
type Word = int64

// Op enumerates MIR instruction opcodes.
type Op uint8

const (
	// OpConst: dst = Imm.
	OpConst Op = iota
	// OpBin: dst = A <BinOp> B.
	OpBin
	// OpLoadG: dst = *global (a shared-memory read).
	OpLoadG
	// OpStoreG: *global = A (a shared-memory write; idempotency-destroying).
	OpStoreG
	// OpAddrG: dst = &global (address-of; safe).
	OpAddrG
	// OpLoad: dst = *(A) through a pointer; a potential segfault site.
	OpLoad
	// OpStore: *(A) = B through a pointer; destroying and a potential
	// segfault site.
	OpStore
	// OpLoadS: dst = stack slot Slot (safe to reexecute).
	OpLoadS
	// OpStoreS: stack slot Slot = A (idempotency-destroying: the slot is
	// not part of the saved register image).
	OpStoreS
	// OpAlloc: dst = address of a fresh heap block of A words. Permitted in
	// reexecution regions; compensated by an implicit free on rollback.
	OpAlloc
	// OpFree: free the heap block at A (idempotency-destroying).
	OpFree
	// OpLock: acquire the mutex at address A; blocks until acquired.
	// Permitted in reexecution regions; compensated by unlock on rollback.
	OpLock
	// OpTimedLock: dst = 1 if the mutex at address A was acquired within
	// Timeout interpreter steps, 0 on timeout. Emitted by the transformer
	// when it converts lock acquisitions into deadlock failure sites.
	OpTimedLock
	// OpUnlock: release the mutex at address A (idempotency-destroying).
	OpUnlock
	// OpCall: dst = Callee(Args...). Idempotency-destroying in the basic
	// design (ConAir §3.2.1).
	OpCall
	// OpSpawn: dst = thread id of a new thread running Callee(Args...).
	OpSpawn
	// OpJoin: block until thread A exits.
	OpJoin
	// OpOutput: emit A to the program output stream, tagged with Text.
	// I/O is idempotency-destroying and a potential wrong-output site.
	OpOutput
	// OpAssert: fail the program with an assertion failure if A == 0.
	// Kind Oracle marks a developer-provided output-correctness condition
	// (Figure 5b); Plain marks an ordinary assert (Figure 5a).
	OpAssert
	// OpYield: scheduler hint; semantically a no-op and safe to reexecute.
	OpYield
	// OpSleep: block this thread for A interpreter steps. Used by the
	// benchmarks the way the paper uses injected sleeps to force
	// failure-inducing interleavings. Safe to reexecute.
	OpSleep
	// OpNop: no operation.
	OpNop
	// OpWait: condition-variable wait. A is the condvar address, B the
	// mutex address; the calling thread must hold the mutex. Atomically
	// releases the mutex and blocks until a signal/broadcast is delivered,
	// then re-acquires the mutex before returning (Mesa semantics).
	//
	// The timed form (Timeout > 0, Dst set) is emitted by the transformer
	// when it hardens a wait as a deadlock failure site: dst = 1 when the
	// wait was signalled (mutex re-acquired), 0 when Timeout interpreter
	// steps elapsed un-signalled. On timeout the mutex is deliberately
	// LEFT RELEASED: the recovery path rolls back to a checkpoint planted
	// before the mutex acquisition (wait is idempotency-destroying, so the
	// region of any later site starts after it, and its own region reaches
	// back across the compensated lock), and reexecution re-acquires the
	// mutex and re-reads the predicate. A wait that already consumed a
	// signal never times out — otherwise a rollback could re-arm the wait
	// and consume a second signal (see the idempotent-region rule in
	// class.go).
	OpWait
	// OpSignal: wake exactly one waiter of the condvar at address A (the
	// longest-blocked one). A signal with no waiter is lost — exactly the
	// lost-signal bug shape. Idempotency-destroying.
	OpSignal
	// OpBroadcast: wake every waiter of the condvar at address A.
	// Idempotency-destroying.
	OpBroadcast
	// OpChSend: send value B into the bounded channel at address A;
	// blocks while the channel is full. Sending on a closed channel is a
	// program failure (panic). Channel state is created lazily at the
	// first channel operation on an address; its capacity is the value
	// stored in the addressed cell at that moment, clamped to >= 1.
	//
	// The timed form (Timeout > 0, Dst set) is the transformer's hardened
	// deadlock-site form: dst = 1 when the value was sent, 0 when Timeout
	// steps elapsed with the channel full (nothing sent).
	OpChSend
	// OpChRecv: dst = next value from the bounded channel at address A;
	// blocks while the channel is empty and open. Receiving from a closed,
	// drained channel yields 0 without blocking. Idempotency-destroying
	// (the consumed value cannot be re-received).
	OpChRecv
	// OpChClose: close the channel at address A, waking blocked
	// receivers (they drain the buffer, then read 0) and failing blocked
	// senders. Closing twice is a program failure. Idempotency-destroying.
	OpChClose
	// OpCAS: atomic compare-and-swap. dst = 1 and *(A) = Args[0] if
	// *(A) == B, else dst = 0. A single scheduling step: no other thread
	// can intervene between the compare and the swap. A potential
	// segmentation-fault site (it dereferences A) and, when it succeeds,
	// a shared-memory write; always idempotency-destroying.
	OpCAS

	// Instructions below are emitted only by the ConAir transformer.

	// OpCheckpoint: a reexecution point. Saves the current frame's register
	// image, program counter and frame depth into the thread-local jump
	// buffer and bumps the thread's region counter (the paper's setjmp plus
	// counter increment, §3.3/§4.1).
	OpCheckpoint
	// OpRollback: a recovery attempt at failure site Site. If the site's
	// thread-local retry count is below MaxRetry and a checkpoint is
	// active, it runs compensation (frees region allocations, releases
	// region locks) and longjmps to the most recent checkpoint; otherwise
	// execution falls through to the next instruction (the real failure).
	OpRollback
	// OpFail: unconditionally report a failure of kind FailKind. The
	// transformer plants this after exhausted recovery attempts
	// (the paper's call of assert_fail after the retry loop, Figure 6).
	OpFail
	// OpSleepRand: block for a scheduler-chosen duration in [0, A] steps.
	// Planted at deadlock failure sites to break recovery livelock (§3.3).
	OpSleepRand

	// OpBr: terminator; branch to Then if A != 0 else to Else.
	OpBr
	// OpJmp: terminator; jump to Then.
	OpJmp
	// OpRet: terminator; return A (or 0 if A is OperandNone) to the caller.
	// Returning from a thread's entry function exits the thread.
	OpRet
)

// String returns the textual mnemonic of the opcode.
func (op Op) String() string {
	if int(op) < len(opTable) && opTable[op].Name != "" {
		return opTable[op].Name
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsTerminator reports whether the opcode ends a basic block. OpFail is a
// terminator because it never falls through: it reports the failure and
// ends the run.
func (op Op) IsTerminator() bool {
	return int(op) < len(opTable) && opTable[op].Terminator
}

// BinOp enumerates the arithmetic and comparison operators of OpBin.
type BinOp uint8

// Binary operators. Comparisons yield 1 or 0.
const (
	BinAdd BinOp = iota
	BinSub
	BinMul
	BinDiv
	BinMod
	BinAnd
	BinOr
	BinXor
	BinShl
	BinShr
	BinEq
	BinNe
	BinLt
	BinLe
	BinGt
	BinGe
)

var binNames = [...]string{
	BinAdd: "add", BinSub: "sub", BinMul: "mul", BinDiv: "div",
	BinMod: "mod", BinAnd: "and", BinOr: "or", BinXor: "xor",
	BinShl: "shl", BinShr: "shr", BinEq: "eq", BinNe: "ne",
	BinLt: "lt", BinLe: "le", BinGt: "gt", BinGe: "ge",
}

// String returns the textual mnemonic of the operator.
func (b BinOp) String() string {
	if int(b) < len(binNames) {
		return binNames[b]
	}
	return fmt.Sprintf("binop(%d)", uint8(b))
}

// Eval applies the operator to two words. Division and modulus by zero
// yield 0 rather than trapping: MIR models concurrency failures, not
// arithmetic ones.
func (b BinOp) Eval(x, y Word) Word {
	switch b {
	case BinAdd:
		return x + y
	case BinSub:
		return x - y
	case BinMul:
		return x * y
	case BinDiv:
		if y == 0 {
			return 0
		}
		return x / y
	case BinMod:
		if y == 0 {
			return 0
		}
		return x % y
	case BinAnd:
		return x & y
	case BinOr:
		return x | y
	case BinXor:
		return x ^ y
	case BinShl:
		return x << (uint64(y) & 63)
	case BinShr:
		return x >> (uint64(y) & 63)
	case BinEq:
		return bool2w(x == y)
	case BinNe:
		return bool2w(x != y)
	case BinLt:
		return bool2w(x < y)
	case BinLe:
		return bool2w(x <= y)
	case BinGt:
		return bool2w(x > y)
	case BinGe:
		return bool2w(x >= y)
	}
	return 0
}

func bool2w(b bool) Word {
	if b {
		return 1
	}
	return 0
}

// ParseBinOp maps a mnemonic back to its operator.
func ParseBinOp(s string) (BinOp, bool) {
	switch s {
	case "add":
		return BinAdd, true
	case "sub":
		return BinSub, true
	case "mul":
		return BinMul, true
	case "div":
		return BinDiv, true
	case "mod":
		return BinMod, true
	case "and":
		return BinAnd, true
	case "or":
		return BinOr, true
	case "xor":
		return BinXor, true
	case "shl":
		return BinShl, true
	case "shr":
		return BinShr, true
	case "eq":
		return BinEq, true
	case "ne":
		return BinNe, true
	case "lt":
		return BinLt, true
	case "le":
		return BinLe, true
	case "gt":
		return BinGt, true
	case "ge":
		return BinGe, true
	}
	return 0, false
}

// OperandKind discriminates Operand payloads.
type OperandKind uint8

// Operand kinds.
const (
	// OperandNone marks an absent operand (e.g. a bare "ret").
	OperandNone OperandKind = iota
	// OperandReg names a virtual register by per-function index.
	OperandReg
	// OperandImm is an immediate constant.
	OperandImm
)

// Operand is a register reference or immediate value. It is 16 bytes:
// the kind, a 32-bit register index and a 64-bit immediate.
type Operand struct {
	Kind OperandKind
	Reg  int32 // register index when Kind == OperandReg
	Imm  Word  // constant when Kind == OperandImm
}

// None is the absent operand.
var None = Operand{Kind: OperandNone}

// Reg returns a register operand.
func Reg(i int) Operand { return Operand{Kind: OperandReg, Reg: int32(i)} }

// Imm returns an immediate operand.
func Imm(v Word) Operand { return Operand{Kind: OperandImm, Imm: v} }

// IsReg reports whether the operand is a register reference.
func (o Operand) IsReg() bool { return o.Kind == OperandReg }

// AssertKind distinguishes ordinary assertions from output oracles.
type AssertKind uint8

// Assertion kinds.
const (
	// AssertPlain is an ordinary developer assertion (Figure 5a).
	AssertPlain AssertKind = iota
	// AssertOracle is a developer-specified output-correctness condition
	// guarding an output statement (Figure 5b). Its failure is a
	// wrong-output failure rather than an assertion failure.
	AssertOracle
)

// FailKind enumerates the failure classes of the paper's evaluation:
// assertion violations, wrong outputs, segmentation faults and deadlocks
// (plus Hang for undetected deadlocks in unhardened programs).
type FailKind uint8

// Failure kinds.
const (
	FailAssert FailKind = iota
	FailWrongOutput
	FailSegfault
	FailDeadlock
	FailHang
	// FailPanic marks a run whose host goroutine panicked (an interpreter
	// or harness defect, not a modeled program failure). The runner's
	// per-job recovery converts such panics into failed results carrying
	// the stack, so one bad job never takes a batch down.
	FailPanic
)

var failNames = [...]string{
	FailAssert:      "assert",
	FailWrongOutput: "wrong-output",
	FailSegfault:    "segfault",
	FailDeadlock:    "deadlock",
	FailHang:        "hang",
	FailPanic:       "panic",
}

// String returns the failure-kind name used in reports.
func (k FailKind) String() string {
	if int(k) < len(failNames) {
		return failNames[k]
	}
	return fmt.Sprintf("failkind(%d)", uint8(k))
}

// Instr is one MIR instruction, laid out as a union: which fields are
// meaningful depends on Op, as the op-descriptor table (optable.go)
// states, and the zero value of unused fields is ignored. Aux holds whichever index the op
// takes (a global, slot, callee or branch target), Imm whichever number
// (a constant, timeout or retry bound), and Ext refers to the text or
// arguments kept in the owning function's pools (Function.Text and
// Function.Args). An Instr is 64 bytes and holds no pointers, so the
// garbage collector never scans instruction arrays.
//
// Instructions are stored by value inside blocks: analyses address them
// as (function, block, index) positions rather than by pointer identity.
type Instr struct {
	Op         Op
	Bin        BinOp      // operator for OpBin
	AssertKind AssertKind // for OpAssert
	FailKind   FailKind   // for OpFail

	Dst int32 // destination register index, or -1 when there is none

	A, B Operand // generic operands

	Aux  int32 // global, slot, callee or then-target index, by op
	Else int32 // else-target block index for OpBr

	Imm Word // constant, timeout or retry bound, by op

	Site int32 // failure-site id, for OpRollback/OpFail/transformed sites
	Ext  int32 // 1 + pool index of the text or arguments, 0 for none
}

// HasDst reports whether the instruction defines a register.
func (in *Instr) HasDst() bool { return in.Dst >= 0 }

// Block is a basic block: a straight-line instruction sequence whose last
// instruction is a terminator.
type Block struct {
	Name   string
	Instrs []Instr
}

// Terminator returns the block's final instruction. It panics on an empty
// block; the verifier rejects those before anything else runs.
func (b *Block) Terminator() *Instr {
	return &b.Instrs[len(b.Instrs)-1]
}

// Function is a MIR function: named registers (parameters first), named
// stack slots, and basic blocks with block 0 as entry.
type Function struct {
	Name      string
	NumParams int
	// RegNames holds one name per virtual register; registers are addressed
	// by index everywhere else.
	RegNames []string
	// SlotNames holds one name per stack slot.
	SlotNames []string
	Blocks    []Block

	// The pools Instr.Ext indexes, append-only: texts holds the texts of
	// output, assert and fail instructions; args holds, for each call,
	// spawn and cas, an entry whose Imm is the argument count followed by
	// the arguments.
	texts []string
	args  []Operand
}

// NumRegs returns the size of the function's virtual register file.
func (f *Function) NumRegs() int { return len(f.RegNames) }

// Entry returns the entry block index (always 0).
func (f *Function) Entry() int { return 0 }

// BlockIndex returns the index of the named block, or -1.
func (f *Function) BlockIndex(name string) int {
	for i := range f.Blocks {
		if f.Blocks[i].Name == name {
			return i
		}
	}
	return -1
}

// Global is a module-level shared cell (one word), optionally used as a
// mutex by lock/unlock instructions.
type Global struct {
	Name string
	Init Word
}

// Module is a complete MIR program: globals plus functions. Function 0 need
// not be main; the entry function is located by name.
type Module struct {
	Name      string
	Globals   []Global
	Functions []Function

	// printed holds the canonical text and its hash once Text or Hash has
	// computed them; it lives and dies with the module.
	printed atomic.Pointer[printedText]
}

// FuncIndex returns the index of the named function, or -1.
func (m *Module) FuncIndex(name string) int {
	for i := range m.Functions {
		if m.Functions[i].Name == name {
			return i
		}
	}
	return -1
}

// GlobalIndex returns the index of the named global, or -1.
func (m *Module) GlobalIndex(name string) int {
	for i := range m.Globals {
		if m.Globals[i].Name == name {
			return i
		}
	}
	return -1
}

// Main returns the index of the "main" function, or -1.
func (m *Module) Main() int { return m.FuncIndex("main") }

// NumInstrs counts every instruction in the module; the benchmarks report
// it as the reconstruction-size analogue of the paper's per-app LOC.
func (m *Module) NumInstrs() int {
	n := 0
	for i := range m.Functions {
		for j := range m.Functions[i].Blocks {
			n += len(m.Functions[i].Blocks[j].Instrs)
		}
	}
	return n
}

// Pos addresses one instruction as (function, block, index-within-block).
type Pos struct {
	Fn, Block, Index int
}

// String renders the position as fn:block:index.
func (p Pos) String() string { return fmt.Sprintf("%d:%d:%d", p.Fn, p.Block, p.Index) }

// Less orders positions lexicographically; used for deterministic reports.
func (p Pos) Less(q Pos) bool {
	if p.Fn != q.Fn {
		return p.Fn < q.Fn
	}
	if p.Block != q.Block {
		return p.Block < q.Block
	}
	return p.Index < q.Index
}

// At returns the instruction at position p.
func (m *Module) At(p Pos) *Instr {
	return &m.Functions[p.Fn].Blocks[p.Block].Instrs[p.Index]
}

// Clone returns a deep copy of the module, so transformation never mutates
// the caller's original program.
func (m *Module) Clone() *Module {
	out := &Module{Name: m.Name}
	out.Globals = append([]Global(nil), m.Globals...)
	out.Functions = make([]Function, len(m.Functions))
	for i := range m.Functions {
		out.Functions[i] = m.Functions[i].Clone()
	}
	return out
}

// Clone returns a deep copy of the function. Its instructions share one
// exactly sized array, which every block views with cap == len.
func (f *Function) Clone() Function {
	nf := f.CloneHeader(0, 0)
	nf.Blocks = make([]Block, len(f.Blocks))
	instrs := make([]Instr, f.NumInstrs())
	for j := range f.Blocks {
		b := &f.Blocks[j]
		n := copy(instrs, b.Instrs)
		nf.Blocks[j] = Block{Name: b.Name, Instrs: instrs[:n:n]}
		instrs = instrs[n:]
	}
	return nf
}

// CloneHeader returns a copy of everything in the function but its
// blocks: name, parameters, register and slot names, and the text and
// argument pools. A rewriter fills in the blocks, appending to the pools
// and names without touching f; regs and texts are how many register
// names and pool texts it will add, so that each is copied once, into
// room for them.
func (f *Function) CloneHeader(regs, texts int) Function {
	return Function{
		Name:      f.Name,
		NumParams: f.NumParams,
		RegNames:  withRoom(f.RegNames, regs),
		SlotNames: append([]string(nil), f.SlotNames...),
		texts:     withRoom(f.texts, texts),
		args:      append([]Operand(nil), f.args...),
	}
}

// withRoom copies s into a new slice with room for extra more elements,
// or returns nil when there is nothing to hold.
func withRoom[S ~[]E, E any](s S, extra int) S {
	if len(s)+extra == 0 {
		return nil
	}
	return append(make(S, 0, len(s)+extra), s...)
}
