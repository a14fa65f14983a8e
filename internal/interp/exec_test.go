package interp

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"conair/internal/mir"
	"conair/internal/sched"
)

// The executor differential tests pin execLocal, the only implementation
// of the scheduling-irrelevant opcodes, against mir.BinOp.Eval and against
// RunReference's tree walk over the source instructions: every eligible
// opcode, every operand shape, and the edge values of 64-bit arithmetic.

// execEdges are the operand values every operator meets on both sides:
// the signed extremes, zero and -1 (div and mod by zero, MinInt64 / -1),
// and shift counts -1, 63 and 64.
var execEdges = []mir.Word{0, 1, -1, 2, -7, 63, 64, math.MinInt64, math.MaxInt64}

// binShapes names the operand shapes of a bin: register or immediate on
// each side (two immediates fold to a constant at compile time).
var binShapes = []string{"RR", "RI", "IR", "II"}

// binModule builds a module whose main computes op over every pair of
// edge values in the given shape, then outputs every result in order.
func binModule(op mir.BinOp, shape string) *mir.Module {
	b := mir.NewBuilder(op.String() + shape)
	f := b.Func("main")
	operand := func(name string, v mir.Word, reg bool) mir.Operand {
		if reg {
			return f.Const(name, v)
		}
		return mir.Imm(v)
	}
	var results []mir.Operand
	for i, x := range execEdges {
		for j, y := range execEdges {
			a := operand(fmt.Sprintf("x%d_%d", i, j), x, shape[0] == 'R')
			c := operand(fmt.Sprintf("y%d_%d", i, j), y, shape[1] == 'R')
			results = append(results, f.Bin(fmt.Sprintf("r%d_%d", i, j), op, a, c))
		}
	}
	for _, r := range results {
		f.Output("r", r)
	}
	f.Ret(mir.Imm(0))
	return b.MustModule()
}

// execMain runs execLocal over main's code from pc 0 with the given
// budget and returns its frame and the count it reported.
func execMain(p *Program, budget int64) (*frame, int64) {
	m := p.mod
	f := &m.Functions[m.Main()]
	fr := &frame{
		fn:    m.Main(),
		regs:  make([]mir.Word, f.NumRegs()),
		slots: make([]mir.Word, len(f.SlotNames)),
	}
	n := execLocal(p.funcs[fr.fn].code, fr, budget)
	return fr, n
}

// outputs returns the values a run wrote, in order.
func outputs(r *Result) []mir.Word {
	var vs []mir.Word
	for _, o := range r.Output {
		vs = append(vs, o.Value)
	}
	return vs
}

// TestExecLocalBinOps checks all 16 operators in every operand shape over
// every pair of edge values: the lowered opcode, execLocal's results
// against mir.BinOp.Eval, and Run's and RunReference's outputs.
func TestExecLocalBinOps(t *testing.T) {
	for op := mir.BinAdd; op <= mir.BinGe; op++ {
		for _, shape := range binShapes {
			name := op.String() + " " + shape
			m := binModule(op, shape)
			p := Compile(m)
			code := p.funcs[m.Main()].code

			var want []mir.Word
			for _, x := range execEdges {
				for _, y := range execEdges {
					want = append(want, op.Eval(x, y))
				}
			}
			wantOp := map[string]cop{
				"RR": cAddRR + cop(op), "RI": cAddRI + cop(op), "IR": cBinIR, "II": cConst,
			}[shape]
			lowered := 0
			for pc := range code {
				if code[pc].op == wantOp {
					lowered++
				}
			}
			if lowered != len(want) {
				t.Fatalf("%s: %d instructions lowered to op %d, want %d", name, lowered, wantOp, len(want))
			}

			fr, n := execMain(p, math.MaxInt64)
			if code[fr.pc].op != cOutput {
				t.Fatalf("%s: execLocal stopped at op %d, want the first output", name, code[fr.pc].op)
			}
			if int(n) != fr.pc {
				t.Fatalf("%s: execLocal reported %d instructions for pc %d", name, n, fr.pc)
			}
			for k, w := range want {
				// The k-th bin's destination is the register the k-th
				// output reads.
				if v := fr.regs[code[fr.pc+k].aReg]; v != w {
					x, y := execEdges[k/len(execEdges)], execEdges[k%len(execEdges)]
					t.Fatalf("%s %d, %d: execLocal %d, Eval %d", name, x, y, v, w)
				}
			}

			cfg := Config{Sched: sched.NewRandom(1), CollectOutput: true}
			ref := RunReference(m, cfg)
			cfg.Sched = sched.NewRandom(1)
			run := RunCounted(m, cfg)
			if !reflect.DeepEqual(run, ref) {
				t.Fatalf("%s: Run and RunReference differ\nRun:       %+v\nReference: %+v", name, run, ref)
			}
			if !reflect.DeepEqual(outputs(&ref.Result), want) {
				t.Fatalf("%s: RunReference outputs %v, want %v", name, outputs(&ref.Result), want)
			}
		}
	}
}

// opsModule exercises every other eligible opcode: const, addrg, loads,
// stores from a register and from an immediate, nop, yield, jmp, a
// register branch taken and not taken, and a constant branch each way.
// Every path that leaves the straight line through them reaches "bad".
func opsModule() *mir.Module {
	b := mir.NewBuilder("ops")
	b.Global("g0", 0)
	g1 := b.Global("g1", 0)
	f := b.Func("main")
	bad := f.NewBlock("bad")
	c := f.Const("c", 5)
	g := f.AddrG("g", g1)
	f.StoreS("s", c)
	f.StoreS("t", mir.Imm(9))
	l := f.LoadS("l", "s")
	u := f.LoadS("u", "t")
	f.Nop()
	f.Yield()
	b1, b2, b3, b4, b5 := f.NewBlock("b1"), f.NewBlock("b2"), f.NewBlock("b3"), f.NewBlock("b4"), f.NewBlock("b5")
	f.Br(c, b1, bad)
	f.SetBlock(b1)
	z := f.Const("z", 0)
	f.Br(z, bad, b2)
	f.SetBlock(b2)
	f.Br(mir.Imm(1), b3, bad)
	f.SetBlock(b3)
	f.Br(mir.Imm(0), bad, b4)
	f.SetBlock(b4)
	f.Jmp(b5)
	f.SetBlock(b5)
	for _, r := range []mir.Operand{c, g, l, u, z} {
		f.Output("r", r)
	}
	f.Ret(mir.Imm(0))
	f.SetBlock(bad)
	f.Output("bad", mir.Imm(-1))
	f.Ret(mir.Imm(1))
	return b.MustModule()
}

// TestExecLocalOps checks the non-arithmetic eligible opcodes against
// their lowering, RunReference and Run, and that execLocal honours every
// budget: run in slices of any size it retires exactly what one call
// does, stopping before the first scheduling-relevant instruction.
func TestExecLocalOps(t *testing.T) {
	m := opsModule()
	p := Compile(m)
	code := p.funcs[m.Main()].code
	ops := map[cop]int{}
	for pc := range code {
		ops[code[pc].op]++
	}
	for _, op := range []cop{cConst, cAddrG, cStoreS, cStoreSI, cLoadS, cNop, cYield, cBr, cJmp} {
		if ops[op] == 0 {
			t.Fatalf("no instruction lowered to op %d: %v", op, ops)
		}
	}
	if ops[cJmp] != 3 {
		t.Fatalf("%d jumps, want 3 (one jmp, two constant branches)", ops[cJmp])
	}

	want := []mir.Word{5, globalAddr(1), 5, 9, 0}
	fr, n := execMain(p, math.MaxInt64)
	if code[fr.pc].op != cOutput {
		t.Fatalf("execLocal stopped at op %d, want the first output", code[fr.pc].op)
	}
	for k, w := range want {
		if v := fr.regs[code[fr.pc+k].aReg]; v != w {
			t.Fatalf("output %d: execLocal %d, want %d", k, v, w)
		}
	}
	for budget := int64(1); budget <= n+1; budget++ {
		sliced := &frame{fn: fr.fn, regs: make([]mir.Word, len(fr.regs)), slots: make([]mir.Word, len(fr.slots))}
		total := int64(0)
		for {
			k := execLocal(code, sliced, budget)
			if k > budget {
				t.Fatalf("budget %d: execLocal ran %d", budget, k)
			}
			total += k
			if k < budget {
				break
			}
		}
		if total != n || sliced.pc != fr.pc || !reflect.DeepEqual(sliced.regs, fr.regs) || !reflect.DeepEqual(sliced.slots, fr.slots) {
			t.Fatalf("budget %d: %d instructions to pc %d, want %d to pc %d", budget, total, sliced.pc, n, fr.pc)
		}
	}

	cfg := Config{Sched: sched.NewRandom(1), CollectOutput: true}
	ref := RunReference(m, cfg)
	cfg.Sched = sched.NewRandom(1)
	if run := RunCounted(m, cfg); !reflect.DeepEqual(run, ref) {
		t.Fatalf("Run and RunReference differ\nRun:       %+v\nReference: %+v", run, ref)
	}
	if !ref.Completed || !reflect.DeepEqual(outputs(&ref.Result), want) {
		t.Fatalf("RunReference: completed=%v outputs %v, want %v", ref.Completed, outputs(&ref.Result), want)
	}
}

// TestExecLocalUnknownOperator pins that an operator mir.BinOp.Eval does
// not know, which only a built module can hold, evaluates to 0 in every
// operand shape, as in the reference.
func TestExecLocalUnknownOperator(t *testing.T) {
	b := mir.NewBuilder("unknown")
	f := b.Func("main")
	x, y := f.Const("x", 6), f.Const("y", 7)
	bad := mir.BinGe + 1
	for _, r := range []mir.Operand{
		f.Bin("rr", bad, x, y), f.Bin("ri", bad, x, mir.Imm(7)),
		f.Bin("ir", bad, mir.Imm(6), y), f.Bin("ii", bad, mir.Imm(6), mir.Imm(7)),
	} {
		f.Output("r", r)
	}
	f.Ret(mir.Imm(0))
	m := b.MustModule()
	cfg := Config{Sched: sched.NewRandom(1), CollectOutput: true}
	ref := RunReference(m, cfg)
	cfg.Sched = sched.NewRandom(1)
	if run := RunCounted(m, cfg); !reflect.DeepEqual(run, ref) {
		t.Fatalf("Run and RunReference differ\nRun:       %+v\nReference: %+v", run, ref)
	}
	if want := []mir.Word{0, 0, 0, 0}; !ref.Completed || !reflect.DeepEqual(outputs(&ref.Result), want) {
		t.Fatalf("RunReference: completed=%v outputs %v, want %v", ref.Completed, outputs(&ref.Result), want)
	}
}

// latchModule builds a main whose loop block is one latch: %i steps by 1
// and is compared with 2 by rel, and the branch loops while the
// comparison holds. With sameDst the comparison overwrites %i.
func latchModule(rel mir.BinOp, sameDst bool) *mir.Module {
	b := mir.NewBuilder("latch" + rel.String())
	f := b.Func("main")
	f.Const("i", 0)
	loop := f.Label("loop")
	i := f.Bin("i", mir.BinAdd, f.R("i"), mir.Imm(1))
	dst := "c"
	if sameDst {
		dst = "i"
	}
	c := f.Bin(dst, rel, i, mir.Imm(2))
	done := f.NewBlock("done")
	f.Br(c, loop, done)
	f.SetBlock(done)
	f.Output("i", f.R("i"))
	f.Ret(mir.Imm(0))
	return b.MustModule()
}

// TestLatchBudgetSplit pins the fused latch against its three source
// instructions run one per call of execLocal: for every relation, both
// destination shapes and every start value of %i, a call from the latch
// with budget 1, 2, 3 or 10 reports the same count and leaves the same pc
// and registers. Budgets below 3 must split the latch, retiring the add
// alone.
func TestLatchBudgetSplit(t *testing.T) {
	for rel := mir.BinEq; rel <= mir.BinGe; rel++ {
		for _, sameDst := range []bool{false, true} {
			m := latchModule(rel, sameDst)
			main := m.Main()
			code, unfused := Compile(m).funcs[main].code, lowerFunc(m, main).code
			latchPC := int(m.Functions[main].BlockOffsets()[1])
			if op, want := code[latchPC].op, cAddEqBr+cop(rel-mir.BinEq); op != want {
				t.Fatalf("%v: latch compiled to op %d, want %d", rel, op, want)
			}
			if unfused[latchPC].op != cAddRI {
				t.Fatalf("%v: unfused latch head is op %d, want cAddRI", rel, unfused[latchPC].op)
			}
			nregs := m.Functions[main].NumRegs()
			iReg := code[latchPC].dst
			for start := mir.Word(-1); start <= 3; start++ {
				for _, budget := range []int64{1, 2, 3, 10} {
					name := fmt.Sprintf("%v sameDst=%v start %d budget %d", rel, sameDst, start, budget)
					fr := &frame{fn: main, pc: latchPC, regs: make([]mir.Word, nregs)}
					fr.regs[iReg] = start
					want := &frame{fn: main, pc: latchPC, regs: slices.Clone(fr.regs)}
					n := execLocal(code, fr, budget)
					var wantN int64
					for wantN < budget {
						k := execLocal(unfused, want, 1)
						if k == 0 {
							break
						}
						wantN += k
					}
					if n != wantN || fr.pc != want.pc || !slices.Equal(fr.regs, want.regs) {
						t.Fatalf("%s: fused ran %d to pc %d with regs %v, unfused %d to pc %d with regs %v",
							name, n, fr.pc, fr.regs, wantN, want.pc, want.regs)
					}
				}
			}
		}
	}
}
