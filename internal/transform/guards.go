package transform

import "conair/internal/mir"

// GuardOutputs inserts a developer-style output-correctness oracle before
// every output instruction whose operand is a register: the paper's
// automatic specification for output functions ("ConAir currently inserts
// an assertion before every fputs function call to check whether the
// parameter of fputs is NULL or not", §3.4). In MIR the analogue asserts
// that the emitted value is non-zero — the shape of the reconstructed
// wrong-output bugs, where a racy read yields the uninitialized zero.
//
// The returned module is a guarded clone; the input is untouched. Running
// the ConAir pipeline on the result makes every guarded output a
// recoverable wrong-output site instead of an unrecoverable one.
func GuardOutputs(m *mir.Module) *mir.Module {
	out := m.Clone()
	for fi := range out.Functions {
		f := &out.Functions[fi]
		guards := 0
		for bi := range f.Blocks {
			for _, in := range f.Blocks[bi].Instrs {
				if in.Op == mir.OpOutput && in.A.Kind == mir.OperandReg {
					guards++
				}
			}
		}
		if guards == 0 {
			continue
		}
		guard := mir.Instr{Op: mir.OpAssert, Dst: -1, AssertKind: mir.AssertOracle}
		f.SetText(&guard, "auto-guard: output value must be initialized (non-zero)")
		guarded := make([]mir.Instr, 0, f.NumInstrs()+guards)
		for bi := range f.Blocks {
			start := len(guarded)
			for _, in := range f.Blocks[bi].Instrs {
				if in.Op == mir.OpOutput && in.A.Kind == mir.OperandReg {
					guard.A = in.A
					guarded = append(guarded, guard)
				}
				guarded = append(guarded, in)
			}
			f.Blocks[bi].Instrs = guarded[start:len(guarded):len(guarded)]
		}
	}
	return out
}
