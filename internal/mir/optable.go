package mir

// The op-descriptor table: for every opcode, its mnemonic, which Instr
// fields it uses and what they mean, and the order its fields are
// written in. The parser, the verifier and the printer's size estimate
// read the table instead of switching over opcodes themselves.

// dstUse says whether an op defines a register.
type dstUse uint8

// Destination uses.
const (
	dstNone   dstUse = iota // never defines one
	dstAlways               // always defines one
	dstMaybe                // call: defines one unless the call is void
	dstTimed                // wait, chsend: defines the success flag exactly in the timed form (Imm > 0)
)

// operandUse says whether an op reads its A or B operand.
type operandUse uint8

// Operand uses.
const (
	operandUnused   operandUse = iota
	operandUsed                // read; OperandNone reads as 0
	operandRequired            // read, and must not be OperandNone
)

// auxUse says what an op's Aux field holds.
type auxUse uint8

// Aux uses.
const (
	auxNone   auxUse = iota
	auxGlobal        // a global index
	auxSlot          // a stack-slot index
	auxCallee        // a function index
	auxBlock         // the (then-)target block index of a branch
)

// immUse says what an op's Imm field holds.
type immUse uint8

// Imm uses.
const (
	immNone     immUse = iota
	immConst           // OpConst's value
	immTimeout         // a timeout in interpreter steps
	immMaxRetry        // the rollback retry bound
)

// argsUse says whether an op has an argument list in the function's
// argument pool.
type argsUse uint8

// Argument uses.
const (
	argsNone   argsUse = iota
	argsCallee         // call, spawn: one argument per callee parameter
	argsOne            // cas: exactly one, the replacement value
)

// field is one written field of an instruction, in textual order.
type field uint8

const (
	fieldA        field = iota // operand A
	fieldB                     // operand B
	fieldArg                   // an operand appended to the argument list
	fieldCall                  // callee(arg, ...)
	fieldGlobal                // @global into Aux
	fieldSlot                  // $slot into Aux
	fieldBlock                 // a block label: Aux, then Else
	fieldImm                   // a 64-bit integer into Imm
	fieldTimeout               // an int into Imm
	fieldSite                  // an int into Site
	fieldText                  // a quoted string into the text pool
	fieldFailKind              // a failure-kind name into FailKind
)

// opInfo describes one opcode.
type opInfo struct {
	Name       string
	Dst        dstUse
	A, B       operandUse
	Aux        auxUse
	Imm        immUse
	Args       argsUse
	Text       bool // has a text in the function's text pool
	Else       bool // Else is a block index (br)
	Terminator bool
	// PositiveImm requires Imm > 0 (timedlock's timeout, the retry bound).
	PositiveImm bool
	// needs names the required operands in the verifier's message.
	needs string
	// syntax lists the written fields; the last optional of them may be
	// left out.
	syntax   []field
	optional int
}

var opTable = [...]opInfo{
	OpConst:      {Name: "const", Dst: dstAlways, Imm: immConst, syntax: []field{fieldImm}},
	OpBin:        {Name: "bin", Dst: dstAlways, A: operandUsed, B: operandUsed, syntax: []field{fieldA, fieldB}},
	OpLoadG:      {Name: "loadg", Dst: dstAlways, Aux: auxGlobal, syntax: []field{fieldGlobal}},
	OpStoreG:     {Name: "storeg", A: operandUsed, Aux: auxGlobal, syntax: []field{fieldGlobal, fieldA}},
	OpAddrG:      {Name: "addrg", Dst: dstAlways, Aux: auxGlobal, syntax: []field{fieldGlobal}},
	OpLoad:       {Name: "load", Dst: dstAlways, A: operandUsed, syntax: []field{fieldA}},
	OpStore:      {Name: "store", A: operandUsed, B: operandUsed, syntax: []field{fieldA, fieldB}},
	OpLoadS:      {Name: "loads", Dst: dstAlways, Aux: auxSlot, syntax: []field{fieldSlot}},
	OpStoreS:     {Name: "stores", A: operandUsed, Aux: auxSlot, syntax: []field{fieldSlot, fieldA}},
	OpAlloc:      {Name: "alloc", Dst: dstAlways, A: operandUsed, syntax: []field{fieldA}},
	OpFree:       {Name: "free", A: operandUsed, syntax: []field{fieldA}},
	OpLock:       {Name: "lock", A: operandUsed, syntax: []field{fieldA}},
	OpTimedLock:  {Name: "timedlock", Dst: dstAlways, A: operandUsed, Imm: immTimeout, PositiveImm: true, syntax: []field{fieldA, fieldTimeout}},
	OpUnlock:     {Name: "unlock", A: operandUsed, syntax: []field{fieldA}},
	OpCall:       {Name: "call", Dst: dstMaybe, Aux: auxCallee, Args: argsCallee, syntax: []field{fieldCall}},
	OpSpawn:      {Name: "spawn", Dst: dstAlways, Aux: auxCallee, Args: argsCallee, syntax: []field{fieldCall}},
	OpJoin:       {Name: "join", A: operandUsed, syntax: []field{fieldA}},
	OpOutput:     {Name: "output", A: operandUsed, Text: true, syntax: []field{fieldText, fieldA}},
	OpAssert:     {Name: "assert", A: operandRequired, Text: true, needs: "a condition", syntax: []field{fieldA, fieldText}},
	OpYield:      {Name: "yield"},
	OpSleep:      {Name: "sleep", A: operandUsed, syntax: []field{fieldA}},
	OpNop:        {Name: "nop"},
	OpWait:       {Name: "wait", Dst: dstTimed, A: operandRequired, B: operandRequired, Imm: immTimeout, needs: "a condvar and a mutex operand", syntax: []field{fieldA, fieldB, fieldTimeout}, optional: 1},
	OpSignal:     {Name: "signal", A: operandUsed, syntax: []field{fieldA}},
	OpBroadcast:  {Name: "broadcast", A: operandUsed, syntax: []field{fieldA}},
	OpChSend:     {Name: "chsend", Dst: dstTimed, A: operandRequired, B: operandRequired, Imm: immTimeout, needs: "a channel and a value operand", syntax: []field{fieldA, fieldB, fieldTimeout}, optional: 1},
	OpChRecv:     {Name: "chrecv", Dst: dstAlways, A: operandUsed, syntax: []field{fieldA}},
	OpChClose:    {Name: "chclose", A: operandUsed, syntax: []field{fieldA}},
	OpCAS:        {Name: "cas", Dst: dstAlways, A: operandRequired, B: operandRequired, Args: argsOne, needs: "an address and an expected-value operand", syntax: []field{fieldA, fieldB, fieldArg}},
	OpCheckpoint: {Name: "checkpoint", syntax: []field{fieldSite}},
	OpRollback:   {Name: "rollback", Imm: immMaxRetry, PositiveImm: true, syntax: []field{fieldSite, fieldImm}},
	OpFail:       {Name: "fail", Text: true, Terminator: true, syntax: []field{fieldFailKind, fieldText}},
	OpSleepRand:  {Name: "sleeprand", A: operandUsed, syntax: []field{fieldA}},
	OpBr:         {Name: "br", A: operandRequired, Aux: auxBlock, Else: true, Terminator: true, needs: "a condition", syntax: []field{fieldA, fieldBlock, fieldBlock}},
	OpJmp:        {Name: "jmp", Aux: auxBlock, Terminator: true, syntax: []field{fieldBlock}},
	OpRet:        {Name: "ret", A: operandUsed, Terminator: true, syntax: []field{fieldA}, optional: 1},
}

// unknownOp describes opcodes outside the table: they use nothing.
var unknownOp opInfo

// info returns the op's descriptor; an unknown op uses no fields.
func (op Op) info() *opInfo {
	if int(op) < len(opTable) {
		return &opTable[op]
	}
	return &unknownOp
}

// mnemonic is what a written mnemonic names: an op, with the operator
// of a binary instruction or the kind of an assertion.
type mnemonic struct {
	op     Op
	bin    BinOp
	oracle bool
}

// mnemonics maps each written mnemonic to what it names. A binary
// instruction is written with its operator's name, never as "bin".
var mnemonics = func() map[string]mnemonic {
	m := make(map[string]mnemonic, len(opTable)+len(binNames))
	for op := range opTable {
		if Op(op) != OpBin {
			m[opTable[op].Name] = mnemonic{op: Op(op)}
		}
	}
	for bin, name := range binNames {
		m[name] = mnemonic{op: OpBin, bin: BinOp(bin)}
	}
	m["oracle"] = mnemonic{op: OpAssert, oracle: true}
	return m
}()

// Text returns the text of an output, assert or fail instruction of f,
// and "" for any other instruction.
func (f *Function) Text(in *Instr) string {
	if in.Ext == 0 || !in.Op.info().Text {
		return ""
	}
	return f.texts[in.Ext-1]
}

// SetText gives in, an instruction of f, the text s. The pool is
// append-only; a text equal to the last one added is shared.
func (f *Function) SetText(in *Instr, s string) {
	switch {
	case s == "":
		in.Ext = 0
	case len(f.texts) > 0 && f.texts[len(f.texts)-1] == s:
		in.Ext = int32(len(f.texts))
	default:
		f.texts = append(f.texts, s)
		in.Ext = int32(len(f.texts))
	}
}

// Args returns the arguments of a call, spawn or cas instruction of f,
// and nil for any other instruction. The result must not be modified.
func (f *Function) Args(in *Instr) []Operand {
	if in.Ext == 0 || in.Op.info().Args == argsNone {
		return nil
	}
	h := int(in.Ext)
	n := h + int(f.args[h-1].Imm)
	return f.args[h:n:n]
}

// SetArgs gives in, an instruction of f, the arguments args.
func (f *Function) SetArgs(in *Instr, args ...Operand) {
	if len(args) == 0 {
		in.Ext = 0
		return
	}
	f.args = append(f.args, Operand{Imm: Word(len(args))})
	in.Ext = int32(len(f.args))
	f.args = append(f.args, args...)
}

// extInRange reports whether in's Ext refers into f's pools, as its op
// requires.
func (f *Function) extInRange(in *Instr) bool {
	info := in.Op.info()
	switch {
	case in.Ext == 0:
		return true
	case in.Ext < 0:
		return false
	case info.Text:
		return int(in.Ext) <= len(f.texts)
	case info.Args != argsNone:
		h := int(in.Ext)
		return h <= len(f.args) && f.args[h-1].Kind == OperandNone &&
			f.args[h-1].Imm >= 0 && f.args[h-1].Imm <= Word(len(f.args)-h)
	}
	return true
}

// Uses returns the registers in, an instruction of f, reads: its A and B
// operands and its arguments. The result is appended to buf to avoid
// allocation in hot analysis loops.
func (f *Function) Uses(in *Instr, buf []int) []int {
	if in.A.Kind == OperandReg {
		buf = append(buf, int(in.A.Reg))
	}
	if in.B.Kind == OperandReg {
		buf = append(buf, int(in.B.Reg))
	}
	for _, a := range f.Args(in) {
		if a.Kind == OperandReg {
			buf = append(buf, int(a.Reg))
		}
	}
	return buf
}
