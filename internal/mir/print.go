package mir

import (
	"crypto/sha256"
	"encoding/hex"
	"math/bits"
	"strconv"
	"strings"
)

// Print renders a module in the textual MIR syntax accepted by Parse. The
// round trip Parse(Print(m)) reproduces m up to register numbering.
//
// Each line is appended into one reused scratch buffer and copied into a
// builder presized from the module's shape, so printing allocates a
// constant number of times per module rather than per instruction.
func Print(m *Module) string {
	var sb strings.Builder
	sb.Grow(printSize(m))
	line := append(make([]byte, 0, 256), "module "...)
	line = append(append(line, m.Name...), '\n')
	sb.Write(line)
	for _, g := range m.Globals {
		line = append(append(line[:0], "global "...), g.Name...)
		line = strconv.AppendInt(append(line, " = "...), g.Init, 10)
		line = append(line, '\n')
		sb.Write(line)
	}
	for fi := range m.Functions {
		f := &m.Functions[fi]
		line = append(append(line[:0], "\nfunc "...), f.Name...)
		line = append(line, '(')
		for i := 0; i < f.NumParams; i++ {
			if i > 0 {
				line = append(line, ", "...)
			}
			line = append(append(line, '%'), f.RegNames[i]...)
		}
		line = append(line, ") {\n"...)
		sb.Write(line)
		for bi := range f.Blocks {
			blk := &f.Blocks[bi]
			sb.WriteString(blk.Name)
			sb.WriteString(":\n")
			for ii := range blk.Instrs {
				line = appendInstr(append(line[:0], "  "...), m, f, &blk.Instrs[ii])
				line = append(line, '\n')
				sb.Write(line)
			}
		}
		sb.WriteString("}\n")
	}
	return sb.String()
}

// printedText is a module's canonical text and the hex SHA-256 of it.
type printedText struct{ text, hash string }

// Text returns Print(m), computed on the first call of Text or Hash and
// kept with the module. The module must not be mutated after that call:
// the interpreter and the replay layer already treat a module as
// immutable once it has been run, recorded or hashed.
func (m *Module) Text() string { return m.textAndHash().text }

// Hash returns the hex SHA-256 of Text(), the identity a schedule
// recording uses to check that it is replayed over the program it was
// captured from.
func (m *Module) Hash() string { return m.textAndHash().hash }

func (m *Module) textAndHash() *printedText {
	if p := m.printed.Load(); p != nil {
		return p
	}
	p := &printedText{text: Print(m)}
	sum := sha256.Sum256([]byte(p.text))
	p.hash = hex.EncodeToString(sum[:])
	// Concurrent first callers print the same text; the first store wins
	// so every caller sees one string.
	if !m.printed.CompareAndSwap(nil, p) {
		p = m.printed.Load()
	}
	return p
}

// printSize estimates Print's output length: names and texts are
// counted exactly, numbers and the layout around them approximately. An
// estimate a little above the final length means the builder never
// regrows, so the text is one allocation of about its own size.
func printSize(m *Module) int {
	n := len("module \n") + len(m.Name)
	for _, g := range m.Globals {
		n += len("global  = \n") + len(g.Name) + numSize(g.Init)
	}
	for fi := range m.Functions {
		f := &m.Functions[fi]
		n += len("\nfunc () {\n}\n") + len(f.Name)
		for i := 0; i < f.NumParams && i < len(f.RegNames); i++ {
			n += len(", %") + len(f.RegNames[i])
		}
		for bi := range f.Blocks {
			blk := &f.Blocks[bi]
			n += len(blk.Name) + len(":\n")
			for ii := range blk.Instrs {
				n += instrSize(m, f, &blk.Instrs[ii])
			}
		}
	}
	return n
}

// instrSize estimates the printed length of one instruction line from
// its op's descriptor. It reads only indices in range, so it never panics
// where the printer would not.
func instrSize(m *Module, f *Function, in *Instr) int {
	info := in.Op.info()
	n := len("   \n") + len(info.Name)
	if info.Dst != dstNone && in.Dst >= 0 && int(in.Dst) < len(f.RegNames) {
		n += len("% = ") + len(f.RegNames[in.Dst])
	}
	if info.A != operandUnused {
		n += operandSize(f, in.A)
	}
	if info.B != operandUnused {
		n += operandSize(f, in.B)
	}
	if info.Imm != immNone {
		n += len(", ") + numSize(in.Imm)
	}
	if in.Site != 0 {
		n += len(" !site ") + numSize(int64(in.Site))
	}
	if info.Text && f.extInRange(in) {
		n += len(`, ""`) + len(f.Text(in))
	}
	if info.Args != argsNone && f.extInRange(in) {
		for _, a := range f.Args(in) {
			n += operandSize(f, a)
		}
	}
	if in.Op == OpFail && int(in.FailKind) < len(failNames) {
		n += len(failNames[in.FailKind])
	}
	var name string
	switch info.Aux {
	case auxGlobal:
		if in.Aux >= 0 && int(in.Aux) < len(m.Globals) {
			name = m.Globals[in.Aux].Name
		}
	case auxSlot:
		if in.Aux >= 0 && int(in.Aux) < len(f.SlotNames) {
			name = f.SlotNames[in.Aux]
		}
	case auxCallee:
		if in.Aux >= 0 && int(in.Aux) < len(m.Functions) {
			name = m.Functions[in.Aux].Name
		}
	case auxBlock:
		if in.Aux >= 0 && int(in.Aux) < len(f.Blocks) {
			name = f.Blocks[in.Aux].Name
		}
	}
	if name != "" {
		n += len(", @()") + len(name)
	}
	if info.Else && in.Else >= 0 && int(in.Else) < len(f.Blocks) {
		n += len(", ") + len(f.Blocks[in.Else].Name)
	}
	return n
}

// operandSize estimates an operand's printed length with its separator.
func operandSize(f *Function, o Operand) int {
	switch o.Kind {
	case OperandReg:
		if o.Reg >= 0 && int(o.Reg) < len(f.RegNames) {
			return len(", %") + len(f.RegNames[o.Reg])
		}
	case OperandImm:
		return len(", ") + numSize(o.Imm)
	}
	return 0
}

// numSize bounds the number of digits and sign of v from its bit
// length, overestimating by at most one.
func numSize(v int64) int {
	if v < 0 {
		return 2 + bits.Len64(uint64(-v))*1233>>12
	}
	return 1 + bits.Len64(uint64(v))*1233>>12
}

// FormatInstr renders one instruction in textual syntax. Instructions
// tagged with a recovery site (the transform annotates the guarded
// branch, fail, timedlock and dereference at each failure site) carry a
// trailing "!site N" annotation, except checkpoint/rollback whose syntax
// already encodes the site.
func FormatInstr(m *Module, f *Function, in *Instr) string {
	return string(appendInstr(make([]byte, 0, 64), m, f, in))
}

// appendInstr appends FormatInstr's rendering of in to b.
func appendInstr(b []byte, m *Module, f *Function, in *Instr) []byte {
	b = appendInstrBody(b, m, f, in)
	if in.Site != 0 && in.Op != OpCheckpoint && in.Op != OpRollback {
		b = strconv.AppendInt(append(b, " !site "...), int64(in.Site), 10)
	}
	return b
}

func appendInstrBody(b []byte, m *Module, f *Function, in *Instr) []byte {
	switch in.Op {
	case OpConst:
		return strconv.AppendInt(appendDst(b, f, in, "const "), in.Imm, 10)
	case OpBin:
		b = append(appendDst(b, f, in, in.Bin.String()), ' ')
		return appendOperands(b, f, in.A, in.B)
	case OpLoadG, OpAddrG:
		b = append(appendDst(b, f, in, in.Op.String()), " @"...)
		return append(b, m.Globals[in.Aux].Name...)
	case OpStoreG:
		b = append(append(b, "storeg @"...), m.Globals[in.Aux].Name...)
		return appendOperand(append(b, ", "...), f, in.A)
	case OpLoad, OpAlloc, OpChRecv:
		b = append(appendDst(b, f, in, in.Op.String()), ' ')
		return appendOperand(b, f, in.A)
	case OpStore:
		return appendOperands(append(b, "store "...), f, in.A, in.B)
	case OpLoadS:
		b = append(appendDst(b, f, in, "loads $"), f.SlotNames[in.Aux]...)
		return b
	case OpStoreS:
		b = append(append(b, "stores $"...), f.SlotNames[in.Aux]...)
		return appendOperand(append(b, ", "...), f, in.A)
	case OpFree, OpLock, OpUnlock, OpJoin, OpSleep, OpSignal, OpBroadcast,
		OpChClose, OpSleepRand:
		b = append(append(b, in.Op.String()...), ' ')
		return appendOperand(b, f, in.A)
	case OpTimedLock:
		b = appendOperand(appendDst(b, f, in, "timedlock "), f, in.A)
		return strconv.AppendInt(append(b, ", "...), in.Imm, 10)
	case OpCall:
		if in.HasDst() {
			return appendCall(appendDst(b, f, in, "call "), m, f, in)
		}
		return appendCall(append(b, "call "...), m, f, in)
	case OpSpawn:
		return appendCall(appendDst(b, f, in, "spawn "), m, f, in)
	case OpOutput:
		b = strconv.AppendQuote(append(b, "output "...), f.Text(in))
		return appendOperand(append(b, ", "...), f, in.A)
	case OpAssert:
		if in.AssertKind == AssertOracle {
			b = append(b, "oracle "...)
		} else {
			b = append(b, "assert "...)
		}
		b = appendOperand(b, f, in.A)
		return strconv.AppendQuote(append(b, ", "...), f.Text(in))
	case OpYield, OpNop:
		return append(b, in.Op.String()...)
	case OpWait, OpChSend:
		if in.Imm > 0 {
			b = append(appendDst(b, f, in, in.Op.String()), ' ')
			b = appendOperands(b, f, in.A, in.B)
			return strconv.AppendInt(append(b, ", "...), in.Imm, 10)
		}
		b = append(append(b, in.Op.String()...), ' ')
		return appendOperands(b, f, in.A, in.B)
	case OpCAS:
		b = appendOperands(appendDst(b, f, in, "cas "), f, in.A, in.B)
		return appendOperand(append(b, ", "...), f, f.Args(in)[0])
	case OpCheckpoint:
		return strconv.AppendInt(append(b, "checkpoint "...), int64(in.Site), 10)
	case OpRollback:
		b = strconv.AppendInt(append(b, "rollback "...), int64(in.Site), 10)
		return strconv.AppendInt(append(b, ", "...), in.Imm, 10)
	case OpFail:
		b = append(append(b, "fail "...), in.FailKind.String()...)
		return strconv.AppendQuote(append(b, ", "...), f.Text(in))
	case OpBr:
		b = appendOperand(append(b, "br "...), f, in.A)
		b = append(append(b, ", "...), f.Blocks[in.Aux].Name...)
		return append(append(b, ", "...), f.Blocks[in.Else].Name...)
	case OpJmp:
		return append(append(b, "jmp "...), f.Blocks[in.Aux].Name...)
	case OpRet:
		if in.A.Kind == OperandNone {
			return append(b, "ret"...)
		}
		return appendOperand(append(b, "ret "...), f, in.A)
	}
	return append(append(append(b, '<'), in.Op.String()...), "?>"...)
}

// appendDst appends "%dst = " and the mnemonic text that follows it.
func appendDst(b []byte, f *Function, in *Instr, op string) []byte {
	b = append(append(b, '%'), f.RegNames[in.Dst]...)
	return append(append(b, " = "...), op...)
}

func appendOperand(b []byte, f *Function, o Operand) []byte {
	switch o.Kind {
	case OperandReg:
		return append(append(b, '%'), f.RegNames[o.Reg]...)
	case OperandImm:
		return strconv.AppendInt(b, o.Imm, 10)
	}
	return append(b, '_')
}

// appendOperands appends "a, b".
func appendOperands(b []byte, f *Function, a, c Operand) []byte {
	return appendOperand(append(appendOperand(b, f, a), ", "...), f, c)
}

// appendCall appends "callee(arg, ...)".
func appendCall(b []byte, m *Module, f *Function, in *Instr) []byte {
	b = append(append(b, m.Functions[in.Aux].Name...), '(')
	for i, a := range f.Args(in) {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendOperand(b, f, a)
	}
	return append(b, ')')
}
