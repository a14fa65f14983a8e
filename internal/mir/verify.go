package mir

import (
	"errors"
	"fmt"
	"strings"
)

// VerifyError collects every structural problem found in a module so a
// caller can fix them in one pass.
type VerifyError struct {
	Problems []string
}

// Error joins the problems, one per line.
func (e *VerifyError) Error() string {
	return fmt.Sprintf("mir verify: %d problem(s):\n  %s",
		len(e.Problems), strings.Join(e.Problems, "\n  "))
}

// Verify checks the structural well-formedness of a module: blocks are
// non-empty and end in exactly one terminator, operand/register/global/
// slot/function/block indices are in range, destination registers exist
// where required, and a "main" function, if present, takes no parameters.
// The interpreter and the analyses assume a verified module.
func Verify(m *Module) error {
	var probs []string
	bad := func(format string, args ...any) {
		probs = append(probs, fmt.Sprintf(format, args...))
	}

	for fi := range m.Functions {
		f := &m.Functions[fi]
		if f.Name == "" {
			bad("function #%d has no name", fi)
		}
		if f.NumParams > len(f.RegNames) {
			bad("%s: %d params but %d registers", f.Name, f.NumParams, len(f.RegNames))
		}
		if len(f.Blocks) == 0 {
			bad("%s: no blocks", f.Name)
			continue
		}
		if f.Name == "main" && f.NumParams != 0 {
			bad("main must take no parameters, has %d", f.NumParams)
		}
		for bi := range f.Blocks {
			blk := &f.Blocks[bi]
			where := func(ii int) string {
				return fmt.Sprintf("%s/%s[%d]", f.Name, blk.Name, ii)
			}
			if len(blk.Instrs) == 0 {
				bad("%s/%s: empty block", f.Name, blk.Name)
				continue
			}
			for ii := range blk.Instrs {
				in := &blk.Instrs[ii]
				isLast := ii == len(blk.Instrs)-1
				if in.Op.IsTerminator() != isLast {
					if isLast {
						bad("%s: block does not end in a terminator", where(ii))
					} else {
						bad("%s: terminator %s in the middle of a block", where(ii), in.Op)
					}
				}
				verifyInstr(m, f, in, func() string { return where(ii) }, bad)
			}
		}
	}
	if len(probs) == 0 {
		return nil
	}
	return &VerifyError{Problems: probs}
}

// verifyInstr checks in, an instruction of f, against its op's
// descriptor: register indices, the pool reference, the destination
// register, the required operands, the Aux index, the else-target, the
// immediate's sign and the argument count.
func verifyInstr(m *Module, f *Function, in *Instr, where func() string, bad func(string, ...any)) {
	checkOperand := func(o Operand, what string) {
		if o.Kind == OperandReg && (o.Reg < 0 || int(o.Reg) >= len(f.RegNames)) {
			bad("%s: %s register %d out of range", where(), what, o.Reg)
		}
	}
	checkOperand(in.A, "A")
	checkOperand(in.B, "B")
	if int(in.Dst) >= len(f.RegNames) {
		bad("%s: dst register %d out of range", where(), in.Dst)
	}
	if !f.extInRange(in) {
		bad("%s: pool reference %d out of range", where(), in.Ext)
		return
	}
	args := f.Args(in)
	for ai, a := range args {
		checkOperand(a, fmt.Sprintf("arg%d", ai))
	}
	info := in.Op.info()
	switch info.Dst {
	case dstAlways:
		if in.Dst < 0 {
			bad("%s: %s requires a destination register", where(), in.Op)
		}
	case dstTimed:
		// The timed forms return a success flag; the plain forms have no
		// result.
		if in.Imm > 0 && in.Dst < 0 {
			bad("%s: timed %s requires a destination register", where(), in.Op)
		}
		if in.Imm <= 0 && in.Dst >= 0 {
			bad("%s: untimed %s must not have a destination register", where(), in.Op)
		}
	}
	if (info.A == operandRequired && in.A.Kind == OperandNone) ||
		(info.B == operandRequired && in.B.Kind == OperandNone) {
		bad("%s: %s needs %s", where(), in.Op, info.needs)
	}
	var limit int
	switch info.Aux {
	case auxGlobal:
		limit = len(m.Globals)
	case auxSlot:
		limit = len(f.SlotNames)
	case auxCallee:
		limit = len(m.Functions)
	case auxBlock:
		limit = len(f.Blocks)
	}
	if info.Aux != auxNone && (in.Aux < 0 || int(in.Aux) >= limit) {
		bad("%s: %s %s %d out of range", where(), in.Op, auxNames[info.Aux], in.Aux)
	}
	if info.Else && (in.Else < 0 || int(in.Else) >= len(f.Blocks)) {
		bad("%s: %s else-target %d out of range", where(), in.Op, in.Else)
	}
	if info.PositiveImm && in.Imm <= 0 {
		bad("%s: %s with non-positive %s", where(), in.Op, immNames[info.Imm])
	}
	switch info.Args {
	case argsCallee:
		if info.Aux == auxCallee && in.Aux >= 0 && int(in.Aux) < len(m.Functions) {
			if callee := &m.Functions[in.Aux]; callee.NumParams != len(args) {
				bad("%s: %s %s expects %d args, got %d",
					where(), in.Op, callee.Name, callee.NumParams, len(args))
			}
		}
	case argsOne:
		if len(args) != 1 {
			bad("%s: %s needs exactly one new-value argument, got %d", where(), in.Op, len(args))
		}
	}
}

var (
	auxNames = [...]string{auxGlobal: "global", auxSlot: "slot", auxCallee: "callee", auxBlock: "target"}
	immNames = [...]string{immConst: "constant", immTimeout: "timeout", immMaxRetry: "retry bound"}
)

// ErrNoMain is returned by entry-point lookups on modules without main.
var ErrNoMain = errors.New("mir: module has no main function")
