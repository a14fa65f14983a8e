package interp

import (
	"fmt"
	"testing"
	"unsafe"

	"conair/internal/mir"
	"conair/internal/mirgen"
)

// compileSrc is a small module exercising every lowering shape the unit
// tests below pin down: multiple functions, multiple blocks, branches,
// immediate and register operands.
const compileSrc = `
module compiletest
global flag = 0

func helper(%x) {
entry:
  %a = loads $tmp
  %b = add %a, 1
  %c = add 20, 22
  ret %c
}

func main() {
entry:
  %i = const 0
  %n = const 3
  jmp loop
loop:
  %i2 = add %i, 1
  %i = add %i2, 0
  %more = lt %i, %n
  br %more, loop, done
done:
  %f = loadg @flag
  br %f, yes, no
yes:
  %r = call helper(%i)
  ret %r
no:
  ret 0
}
`

func compileTestModule(t *testing.T) *mir.Module {
	t.Helper()
	m, err := mir.Parse(compileSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

// TestCinstrLayout pins the compiled instruction at 56 bytes: positions,
// texts and arguments live outside the code stream.
func TestCinstrLayout(t *testing.T) {
	if got := unsafe.Sizeof(cinstr{}); got > 56 {
		t.Errorf("cinstr is %d bytes, want at most 56", got)
	}
}

// TestCompilePositions pins the 1:1 slot mapping: the compiled stream of
// every function has exactly NumInstrs slots, blockStart matches
// BlockOffsets, and each slot's position as VM.posOf rebuilds it
// round-trips through FlatPos.
func TestCompilePositions(t *testing.T) {
	mods := []*mir.Module{
		compileTestModule(t),
		mirgen.Gen(mirgen.Config{Seed: 1, Threads: 2}),
		mirgen.Gen(mirgen.Config{Seed: 2, Bug: mirgen.BugOrder}),
	}
	for mi, m := range mods {
		p := Compile(m)
		if len(p.funcs) != len(m.Functions) {
			t.Fatalf("module %d: %d compiled funcs for %d source funcs",
				mi, len(p.funcs), len(m.Functions))
		}
		for fi := range m.Functions {
			f := &m.Functions[fi]
			fc := &p.funcs[fi]
			if got, want := len(fc.code), f.NumInstrs(); got != want {
				t.Fatalf("module %d func %d: %d slots, want %d", mi, fi, got, want)
			}
			offs := f.BlockOffsets()
			for b, off := range offs {
				if fc.blockStart[b] != off {
					t.Fatalf("module %d func %d block %d: start %d, want %d",
						mi, fi, b, fc.blockStart[b], off)
				}
			}
			for b := range f.Blocks {
				for i := range f.Blocks[b].Instrs {
					pc := int(offs[b]) + i
					want := mir.Pos{Fn: fi, Block: b, Index: i}
					vm := &VM{prog: p}
					if got := vm.posOf(&frame{fn: fi, pc: pc}, &fc.code[pc]); got != want {
						t.Fatalf("module %d func %d pc %d: pos %v, want %v",
							mi, fi, pc, got, want)
					}
					if got := f.FlatPos(fi, pc); got != want {
						t.Fatalf("FlatPos(%d) = %v, want %v", pc, got, want)
					}
				}
			}
		}
	}
}

// TestCompileBranchTargets checks that br/jmp lower to absolute flat pcs:
// blockStart of the source target block.
func TestCompileBranchTargets(t *testing.T) {
	m := compileTestModule(t)
	p := Compile(m)
	for fi := range m.Functions {
		f := &m.Functions[fi]
		fc := &p.funcs[fi]
		offs := f.BlockOffsets()
		for b := range f.Blocks {
			for i := range f.Blocks[b].Instrs {
				in := &f.Blocks[b].Instrs[i]
				c := &fc.code[int(offs[b])+i]
				switch in.Op {
				case mir.OpBr:
					if c.op != cBr {
						t.Fatalf("func %d br at %d:%d compiled to op %d", fi, b, i, c.op)
					}
					if c.thenPC != offs[in.Aux] || c.elsePC != offs[in.Else] {
						t.Fatalf("br targets (%d,%d), want (%d,%d)",
							c.thenPC, c.elsePC, offs[in.Aux], offs[in.Else])
					}
				case mir.OpJmp:
					if c.op != cJmp || c.thenPC != offs[in.Aux] {
						t.Fatalf("jmp target %d, want %d", c.thenPC, offs[in.Aux])
					}
				}
			}
		}
	}
}

// findInstr returns the compiled slot for the first source instruction in
// fn satisfying pred, or -1.
func findSlot(t *testing.T, p *Program, fi int, pred func(c *cinstr) bool) int {
	t.Helper()
	for pc := range p.funcs[fi].code {
		if pred(&p.funcs[fi].code[pc]) {
			return pc
		}
	}
	return -1
}

// TestCompileOperandBinding pins the operand pre-binding rules: register
// operands carry their slot, immediates carry -1 plus the value, and a bin
// with two immediates constant-folds to cConst at compile time.
func TestCompileOperandBinding(t *testing.T) {
	m := compileTestModule(t)
	p := Compile(m)

	// helper: %b = add %a, 1 → cAddRI.
	ri := findSlot(t, p, 0, func(c *cinstr) bool { return c.op == cAddRI })
	if ri < 0 {
		t.Fatal("no cAddRI slot in helper")
	}
	c := &p.funcs[0].code[ri]
	if c.aReg < 0 || c.bReg >= 0 || c.bImm != 1 {
		t.Fatalf("cAddRI binding: aReg=%d bReg=%d bImm=%d", c.aReg, c.bReg, c.bImm)
	}

	// helper: %c = add 20, 22 → folded to cConst 42.
	fold := findSlot(t, p, 0, func(c *cinstr) bool {
		return c.op == cConst && c.aImm == 42
	})
	if fold < 0 {
		t.Fatal("add 20, 22 did not constant-fold to cConst 42")
	}
}

// TestCompileCache pins the memoization contract: same module pointer,
// same Program; a distinct module (even with identical source) compiles
// separately.
func TestCompileCache(t *testing.T) {
	m := compileTestModule(t)
	if Compile(m) != Compile(m) {
		t.Fatal("Compile not memoized by module pointer")
	}
	if Compile(compileTestModule(t)) == Compile(m) {
		t.Fatal("distinct modules share a Program")
	}
}

// eligibleModule builds a module of nf functions, each a loop of n
// scheduling-irrelevant instructions of every kind, called from main.
func eligibleModule(nf, n int) *mir.Module {
	b := mir.NewBuilder("eligible")
	g := b.Global("g", 0)
	for fi := 0; fi < nf; fi++ {
		f := b.Func(fmt.Sprintf("f%d", fi), "x")
		loop := f.Label("loop")
		x := f.R("x")
		for i := 0; i < n; i++ {
			r := fmt.Sprintf("r%d", i%8)
			switch i % 6 {
			case 0:
				f.Bin(r, mir.BinOp(i%16), x, mir.Imm(mir.Word(i)))
			case 1:
				f.Bin(r, mir.BinOp(i%16), x, f.R(fmt.Sprintf("r%d", (i+1)%8)))
			case 2:
				f.StoreS("s", f.R(r))
			case 3:
				f.LoadS(r, "s")
			case 4:
				f.AddrG(r, g)
			default:
				f.Const(r, mir.Word(i))
			}
		}
		done := f.NewBlock("done")
		f.Br(f.R("r0"), loop, done)
		f.SetBlock(done)
		f.Ret(x)
	}
	main := b.Func("main")
	for fi := 0; fi < nf; fi++ {
		main.Call("v", fmt.Sprintf("f%d", fi), mir.Imm(1))
	}
	main.Ret(mir.Imm(0))
	return b.MustModule()
}

// TestCompileAllocs pins that compiling allocates per function, not per
// instruction: growing every function a hundredfold adds no allocation,
// and the total stays within a few per function.
func TestCompileAllocs(t *testing.T) {
	const nf = 4
	allocs := func(n int) float64 {
		m := eligibleModule(nf, n)
		return testing.AllocsPerRun(10, func() { compileModule(m) })
	}
	small, large := allocs(30), allocs(3000)
	t.Logf("%d functions: %.0f allocations at 30 instructions each, %.0f at 3000", nf+1, small, large)
	if large != small {
		t.Errorf("Compile allocates per instruction: %.0f allocations at 30 instructions per function, %.0f at 3000", small, large)
	}
	if limit := float64(4*(nf+1) + 4); large > limit {
		t.Errorf("Compile made %.0f allocations for %d functions, want at most %.0f", large, nf+1, limit)
	}
}

// isLatch reports whether ins opens with a loop latch in source form: an
// add of a register and an immediate, a comparison of its result with an
// immediate, and a branch without a site on that comparison.
func isLatch(ins []mir.Instr) bool {
	if len(ins) < 3 {
		return false
	}
	add, cmp, br := &ins[0], &ins[1], &ins[2]
	return add.Op == mir.OpBin && add.Bin == mir.BinAdd &&
		add.A.Kind == mir.OperandReg && add.B.Kind == mir.OperandImm &&
		cmp.Op == mir.OpBin && cmp.Bin >= mir.BinEq && cmp.Bin <= mir.BinGe &&
		cmp.A.Kind == mir.OperandReg && cmp.A.Reg == add.Dst && cmp.B.Kind == mir.OperandImm &&
		br.Op == mir.OpBr && br.Site == 0 && br.A.Kind == mir.OperandReg && br.A.Reg == cmp.Dst
}

// checkLatches checks m's compiled code against its source and its
// unfused lowering: the first slot of every latch within one block
// (isLatch) holds the fused opcode with the add's, the compare's and the
// branch's operands, and every other slot, the latch's compare and branch
// included, is exactly the unfused lowering. It returns how many latches
// were fused.
func checkLatches(t *testing.T, name string, m *mir.Module) int {
	t.Helper()
	p, q := Compile(m), &Program{mod: m, funcs: make([]fcode, len(m.Functions))}
	for fi := range q.funcs {
		q.funcs[fi] = lowerFunc(m, fi)
	}
	q.numberCheckpoints()
	fused := 0
	for fi := range m.Functions {
		f := &m.Functions[fi]
		code, unfused := p.funcs[fi].code, q.funcs[fi].code
		offs := f.BlockOffsets()
		for b := range f.Blocks {
			ins := f.Blocks[b].Instrs
			for i := range ins {
				pc := int(offs[b]) + i
				want := unfused[pc]
				if isLatch(ins[i:]) {
					fused++
					cmp, br := &ins[i+1], &ins[i+2]
					want.op = cAddEqBr + cop(cmp.Bin-mir.BinEq)
					want.aux, want.aImm = cmp.Dst, cmp.B.Imm
					want.thenPC, want.elsePC = offs[br.Aux], offs[br.Else]
				}
				if got := code[pc]; got != want {
					t.Fatalf("%s func %d pc %d: compiled %+v, want %+v", name, fi, pc, got, want)
				}
			}
		}
	}
	return fused
}
