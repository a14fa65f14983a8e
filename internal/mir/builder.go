package mir

import "fmt"

// Builder constructs a Module programmatically. It resolves register,
// slot, block, global and function names to indices as it goes, so the
// produced module is ready for the verifier and interpreter without a
// separate resolution pass.
//
// Usage:
//
//	b := mir.NewBuilder("prog")
//	g := b.Global("counter", 0)
//	f := b.Func("main")
//	r := f.Const("r", 1)
//	f.StoreG(g, r)
//	f.Ret(mir.None)
//	m, err := b.Module()
type Builder struct {
	m      *Module
	fns    []*FuncBuilder
	errs   []error
	fixups []calleeFixup
}

// calleeFixup records a call/spawn whose callee was named before being
// declared; Module resolves these once every function exists.
type calleeFixup struct {
	fn, blk, idx int
	name         string
}

// NewBuilder returns an empty module builder.
func NewBuilder(name string) *Builder {
	return &Builder{m: &Module{Name: name}}
}

// Global declares a global cell with an initial value and returns its
// index. Redeclaring a name is an error surfaced by Module.
func (b *Builder) Global(name string, init Word) int {
	if b.m.GlobalIndex(name) >= 0 {
		b.errs = append(b.errs, fmt.Errorf("global %q redeclared", name))
	}
	b.m.Globals = append(b.m.Globals, Global{Name: name, Init: init})
	return len(b.m.Globals) - 1
}

// Func starts a new function with the given parameter names and returns its
// builder. Parameters become the first registers.
func (b *Builder) Func(name string, params ...string) *FuncBuilder {
	if b.m.FuncIndex(name) >= 0 {
		b.errs = append(b.errs, fmt.Errorf("function %q redeclared", name))
	}
	f := Function{Name: name, NumParams: len(params)}
	f.RegNames = append(f.RegNames, params...)
	b.m.Functions = append(b.m.Functions, f)
	fb := &FuncBuilder{
		b:    b,
		fi:   len(b.m.Functions) - 1,
		regs: map[string]int{},
	}
	for i, p := range params {
		if _, dup := fb.regs[p]; dup {
			b.errs = append(b.errs, fmt.Errorf("%s: duplicate parameter %q", name, p))
		}
		fb.regs[p] = i
	}
	fb.Label("entry")
	b.fns = append(b.fns, fb)
	return fb
}

// Module finalizes the program: every open function gets its pending block
// closed, forward callee references are resolved, and accumulated errors
// are reported. The verifier is run so that builder output is always
// executable.
func (b *Builder) Module() (*Module, error) {
	for _, fb := range b.fns {
		fb.finish()
	}
	for _, fx := range b.fixups {
		ci := b.m.FuncIndex(fx.name)
		if ci < 0 {
			b.errs = append(b.errs, fmt.Errorf("call to undeclared function %q", fx.name))
			continue
		}
		b.m.Functions[fx.fn].Blocks[fx.blk].Instrs[fx.idx].Aux = int32(ci)
	}
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("builder: %w (and %d more)", b.errs[0], len(b.errs)-1)
	}
	if err := Verify(b.m); err != nil {
		return nil, err
	}
	return b.m, nil
}

// MustModule is Module but panics on error; intended for the benchmark
// programs, whose construction is deterministic.
func (b *Builder) MustModule() *Module {
	m, err := b.Module()
	if err != nil {
		panic(err)
	}
	return m
}

// FuncBuilder appends instructions to one function.
type FuncBuilder struct {
	b    *Builder
	fi   int
	regs map[string]int
	cur  int // index of the open block, -1 if none
	done bool
}

func (fb *FuncBuilder) fn() *Function { return &fb.b.m.Functions[fb.fi] }

// Index returns the function's index in the module.
func (fb *FuncBuilder) Index() int { return fb.fi }

// Reg returns (declaring on first use) the register with the given name.
func (fb *FuncBuilder) Reg(name string) int {
	if i, ok := fb.regs[name]; ok {
		return i
	}
	f := fb.fn()
	f.RegNames = append(f.RegNames, name)
	i := len(f.RegNames) - 1
	fb.regs[name] = i
	return i
}

// Slot declares (or returns) the stack slot with the given name.
func (fb *FuncBuilder) Slot(name string) int {
	f := fb.fn()
	for i, n := range f.SlotNames {
		if n == name {
			return i
		}
	}
	f.SlotNames = append(f.SlotNames, name)
	return len(f.SlotNames) - 1
}

// NewBlock reserves a new (empty) basic block and returns its index without
// moving the insertion point. Use it to create branch targets ahead of the
// branch, then SetBlock to fill them in.
func (fb *FuncBuilder) NewBlock(name string) int {
	f := fb.fn()
	if f.BlockIndex(name) >= 0 {
		fb.b.errs = append(fb.b.errs, fmt.Errorf("%s: block %q redeclared", f.Name, name))
	}
	f.Blocks = append(f.Blocks, Block{Name: name})
	return len(f.Blocks) - 1
}

// SetBlock moves the insertion point to block i.
func (fb *FuncBuilder) SetBlock(i int) {
	f := fb.fn()
	if i < 0 || i >= len(f.Blocks) {
		fb.b.errs = append(fb.b.errs, fmt.Errorf("%s: SetBlock(%d) out of range", f.Name, i))
		return
	}
	fb.cur = i
}

// Label opens a new basic block, moves the insertion point to it, and — if
// the previous insertion block lacks a terminator — appends a fall-through
// jump to it, which keeps straight-line program text natural.
func (fb *FuncBuilder) Label(name string) int {
	f := fb.fn()
	ni := fb.NewBlock(name)
	if ni > 0 {
		prev := &f.Blocks[fb.cur]
		if len(prev.Instrs) == 0 || !prev.Terminator().Op.IsTerminator() {
			prev.Instrs = append(prev.Instrs, Instr{Op: OpJmp, Dst: -1, Aux: int32(ni)})
		}
	}
	fb.cur = ni
	return ni
}

// emit appends in to the open block and returns where it landed, or nil
// if it was rejected.
func (fb *FuncBuilder) emit(in Instr) *Instr {
	f := fb.fn()
	if len(f.Blocks) == 0 {
		fb.Label("entry")
	}
	blk := &f.Blocks[fb.cur]
	if len(blk.Instrs) > 0 && blk.Terminator().Op.IsTerminator() {
		fb.b.errs = append(fb.b.errs, fmt.Errorf("%s/%s: instruction after terminator", f.Name, blk.Name))
		return nil
	}
	blk.Instrs = append(blk.Instrs, in)
	return &blk.Instrs[len(blk.Instrs)-1]
}

// emitText emits in with the text s.
func (fb *FuncBuilder) emitText(in Instr, s string) {
	if p := fb.emit(in); p != nil {
		fb.fn().SetText(p, s)
	}
}

// emitArgs emits in with the arguments args.
func (fb *FuncBuilder) emitArgs(in Instr, args []Operand) {
	if p := fb.emit(in); p != nil {
		fb.fn().SetArgs(p, args...)
	}
}

func (fb *FuncBuilder) finish() {
	if fb.done {
		return
	}
	fb.done = true
	f := fb.fn()
	if len(f.Blocks) == 0 {
		fb.Label("entry")
	}
	cur := &f.Blocks[fb.cur]
	if len(cur.Instrs) == 0 || !cur.Terminator().Op.IsTerminator() {
		cur.Instrs = append(cur.Instrs, Instr{Op: OpRet, Dst: -1, A: None})
	}
	// Move the blocks out of their append-grown slices into one exactly
	// sized array.
	instrs := make([]Instr, f.NumInstrs())
	for i := range f.Blocks {
		n := copy(instrs, f.Blocks[i].Instrs)
		f.Blocks[i].Instrs = instrs[:n:n]
		instrs = instrs[n:]
	}
}

// R is shorthand for a register operand by name.
func (fb *FuncBuilder) R(name string) Operand { return Reg(fb.Reg(name)) }

// Const emits dst = v and returns dst's operand.
func (fb *FuncBuilder) Const(dst string, v Word) Operand {
	d := fb.Reg(dst)
	fb.emit(Instr{Op: OpConst, Dst: int32(d), Imm: v})
	return Reg(d)
}

// Bin emits dst = a op b and returns dst's operand.
func (fb *FuncBuilder) Bin(dst string, op BinOp, a, b Operand) Operand {
	d := fb.Reg(dst)
	fb.emit(Instr{Op: OpBin, Bin: op, Dst: int32(d), A: a, B: b})
	return Reg(d)
}

// LoadG emits dst = *global.
func (fb *FuncBuilder) LoadG(dst string, global int) Operand {
	d := fb.Reg(dst)
	fb.emit(Instr{Op: OpLoadG, Dst: int32(d), Aux: int32(global)})
	return Reg(d)
}

// StoreG emits *global = v.
func (fb *FuncBuilder) StoreG(global int, v Operand) {
	fb.emit(Instr{Op: OpStoreG, Dst: -1, Aux: int32(global), A: v})
}

// AddrG emits dst = &global.
func (fb *FuncBuilder) AddrG(dst string, global int) Operand {
	d := fb.Reg(dst)
	fb.emit(Instr{Op: OpAddrG, Dst: int32(d), Aux: int32(global)})
	return Reg(d)
}

// Load emits dst = *(addr).
func (fb *FuncBuilder) Load(dst string, addr Operand) Operand {
	d := fb.Reg(dst)
	fb.emit(Instr{Op: OpLoad, Dst: int32(d), A: addr})
	return Reg(d)
}

// Store emits *(addr) = v.
func (fb *FuncBuilder) Store(addr, v Operand) {
	fb.emit(Instr{Op: OpStore, Dst: -1, A: addr, B: v})
}

// LoadS emits dst = slot.
func (fb *FuncBuilder) LoadS(dst, slot string) Operand {
	d := fb.Reg(dst)
	fb.emit(Instr{Op: OpLoadS, Dst: int32(d), Aux: int32(fb.Slot(slot))})
	return Reg(d)
}

// StoreS emits slot = v.
func (fb *FuncBuilder) StoreS(slot string, v Operand) {
	fb.emit(Instr{Op: OpStoreS, Dst: -1, Aux: int32(fb.Slot(slot)), A: v})
}

// Alloc emits dst = alloc(size).
func (fb *FuncBuilder) Alloc(dst string, size Operand) Operand {
	d := fb.Reg(dst)
	fb.emit(Instr{Op: OpAlloc, Dst: int32(d), A: size})
	return Reg(d)
}

// Free emits free(addr).
func (fb *FuncBuilder) Free(addr Operand) {
	fb.emit(Instr{Op: OpFree, Dst: -1, A: addr})
}

// Lock emits lock(addr).
func (fb *FuncBuilder) Lock(addr Operand) {
	fb.emit(Instr{Op: OpLock, Dst: -1, A: addr})
}

// Unlock emits unlock(addr).
func (fb *FuncBuilder) Unlock(addr Operand) {
	fb.emit(Instr{Op: OpUnlock, Dst: -1, A: addr})
}

// Wait emits a condition-variable wait: release the mutex at mtx, block
// until signalled on the condvar at cv, re-acquire mtx.
func (fb *FuncBuilder) Wait(cv, mtx Operand) {
	fb.emit(Instr{Op: OpWait, Dst: -1, A: cv, B: mtx})
}

// Signal emits a wake-one on the condvar at cv.
func (fb *FuncBuilder) Signal(cv Operand) {
	fb.emit(Instr{Op: OpSignal, Dst: -1, A: cv})
}

// Broadcast emits a wake-all on the condvar at cv.
func (fb *FuncBuilder) Broadcast(cv Operand) {
	fb.emit(Instr{Op: OpBroadcast, Dst: -1, A: cv})
}

// ChSend emits a bounded-channel send of v into the channel at ch.
func (fb *FuncBuilder) ChSend(ch, v Operand) {
	fb.emit(Instr{Op: OpChSend, Dst: -1, A: ch, B: v})
}

// ChRecv emits dst = receive from the channel at ch.
func (fb *FuncBuilder) ChRecv(dst string, ch Operand) Operand {
	d := fb.Reg(dst)
	fb.emit(Instr{Op: OpChRecv, Dst: int32(d), A: ch})
	return Reg(d)
}

// ChClose emits a close of the channel at ch.
func (fb *FuncBuilder) ChClose(ch Operand) {
	fb.emit(Instr{Op: OpChClose, Dst: -1, A: ch})
}

// CAS emits dst = (1 if *(addr) == expect then *(addr) = repl else 0).
func (fb *FuncBuilder) CAS(dst string, addr, expect, repl Operand) Operand {
	d := fb.Reg(dst)
	fb.emitArgs(Instr{Op: OpCAS, Dst: int32(d), A: addr, B: expect}, []Operand{repl})
	return Reg(d)
}

// LockG is a convenience for locking a global used as a mutex.
func (fb *FuncBuilder) LockG(global int) {
	p := fb.AddrG(fmt.Sprintf(".mtx%d", global), global)
	fb.Lock(p)
}

// UnlockG releases a global mutex.
func (fb *FuncBuilder) UnlockG(global int) {
	p := fb.AddrG(fmt.Sprintf(".mtx%d", global), global)
	fb.Unlock(p)
}

// callee resolves a callee name immediately when possible and otherwise
// records a fixup against the instruction the caller is about to emit.
func (fb *FuncBuilder) callee(name string) int {
	if i := fb.b.m.FuncIndex(name); i >= 0 {
		return i
	}
	blk := &fb.fn().Blocks[fb.cur]
	fb.b.fixups = append(fb.b.fixups, calleeFixup{
		fn: fb.fi, blk: fb.cur, idx: len(blk.Instrs), name: name,
	})
	return -1
}

// Call emits dst = callee(args...); dst may be "" for a void call. The
// callee may be declared later in the same builder.
func (fb *FuncBuilder) Call(dst, callee string, args ...Operand) Operand {
	d := -1
	if dst != "" {
		d = fb.Reg(dst)
	}
	fb.emitArgs(Instr{Op: OpCall, Dst: int32(d), Aux: int32(fb.callee(callee))}, args)
	if d < 0 {
		return None
	}
	return Reg(d)
}

// Spawn emits dst = spawn callee(args...) and returns the thread id operand.
func (fb *FuncBuilder) Spawn(dst, callee string, args ...Operand) Operand {
	d := fb.Reg(dst)
	fb.emitArgs(Instr{Op: OpSpawn, Dst: int32(d), Aux: int32(fb.callee(callee))}, args)
	return Reg(d)
}

// Join emits join(tid).
func (fb *FuncBuilder) Join(tid Operand) {
	fb.emit(Instr{Op: OpJoin, Dst: -1, A: tid})
}

// Output emits output(v) tagged with text.
func (fb *FuncBuilder) Output(text string, v Operand) {
	fb.emitText(Instr{Op: OpOutput, Dst: -1, A: v}, text)
}

// Assert emits assert(cond).
func (fb *FuncBuilder) Assert(cond Operand, msg string) {
	fb.emitText(Instr{Op: OpAssert, Dst: -1, A: cond, AssertKind: AssertPlain}, msg)
}

// OracleAssert emits a developer output-correctness oracle.
func (fb *FuncBuilder) OracleAssert(cond Operand, msg string) {
	fb.emitText(Instr{Op: OpAssert, Dst: -1, A: cond, AssertKind: AssertOracle}, msg)
}

// Yield emits a scheduler hint.
func (fb *FuncBuilder) Yield() { fb.emit(Instr{Op: OpYield, Dst: -1}) }

// Sleep emits sleep(steps).
func (fb *FuncBuilder) Sleep(steps Operand) {
	fb.emit(Instr{Op: OpSleep, Dst: -1, A: steps})
}

// Nop emits a no-op.
func (fb *FuncBuilder) Nop() { fb.emit(Instr{Op: OpNop, Dst: -1}) }

// Fail emits an unconditional failure terminator.
func (fb *FuncBuilder) Fail(kind FailKind, msg string) {
	fb.emitText(Instr{Op: OpFail, Dst: -1, FailKind: kind}, msg)
}

// Br emits a conditional branch to block indices then/else.
func (fb *FuncBuilder) Br(cond Operand, then, els int) {
	fb.emit(Instr{Op: OpBr, Dst: -1, A: cond, Aux: int32(then), Else: int32(els)})
}

// Jmp emits an unconditional jump to block index then.
func (fb *FuncBuilder) Jmp(then int) {
	fb.emit(Instr{Op: OpJmp, Dst: -1, Aux: int32(then)})
}

// Ret emits a return; pass mir.None for a void return.
func (fb *FuncBuilder) Ret(v Operand) {
	fb.emit(Instr{Op: OpRet, Dst: -1, A: v})
}
