package mir

// The text path's reference implementation: the fmt-per-instruction
// printer and the split-based line parser that Print and Parse replaced,
// kept verbatim (bar renaming and the comment-marker fix in
// refStripComment) as the oracle for the differential tests and FuzzParse.
// The parser shares validIdent, atoi32, parseFailKind and ParseBinOp with
// Parse, and both store texts and arguments through Function.SetText and
// Function.SetArgs.

import (
	"fmt"
	"strconv"
	"strings"
)

// refPrint is the fmt-based printer Print replaced, kept as the
// differential oracle for Print.
func refPrint(m *Module) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s\n", m.Name)
	for _, g := range m.Globals {
		fmt.Fprintf(&sb, "global %s = %d\n", g.Name, g.Init)
	}
	for fi := range m.Functions {
		f := &m.Functions[fi]
		sb.WriteString("\nfunc ")
		sb.WriteString(f.Name)
		sb.WriteByte('(')
		for i := 0; i < f.NumParams; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteByte('%')
			sb.WriteString(f.RegNames[i])
		}
		sb.WriteString(") {\n")
		for bi := range f.Blocks {
			blk := &f.Blocks[bi]
			fmt.Fprintf(&sb, "%s:\n", blk.Name)
			for ii := range blk.Instrs {
				sb.WriteString("  ")
				sb.WriteString(refFormatInstr(m, f, &blk.Instrs[ii]))
				sb.WriteByte('\n')
			}
		}
		sb.WriteString("}\n")
	}
	return sb.String()
}

// refFormatInstr is the reference FormatInstr.
func refFormatInstr(m *Module, f *Function, in *Instr) string {
	s := refFormatInstrBody(m, f, in)
	if in.Site != 0 && in.Op != OpCheckpoint && in.Op != OpRollback {
		s += " !site " + strconv.Itoa(int(in.Site))
	}
	return s
}

func refFormatInstrBody(m *Module, f *Function, in *Instr) string {
	opnd := func(o Operand) string {
		switch o.Kind {
		case OperandReg:
			return "%" + f.RegNames[o.Reg]
		case OperandImm:
			return strconv.FormatInt(o.Imm, 10)
		}
		return "_"
	}
	dst := func() string {
		return "%" + f.RegNames[in.Dst] + " = "
	}
	gname := func() string { return "@" + m.Globals[in.Aux].Name }
	sname := func() string { return "$" + f.SlotNames[in.Aux] }
	callArgs := func() string {
		args := f.Args(in)
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = opnd(a)
		}
		return m.Functions[in.Aux].Name + "(" + strings.Join(parts, ", ") + ")"
	}
	blk := func(i int32) string { return f.Blocks[i].Name }

	switch in.Op {
	case OpConst:
		return fmt.Sprintf("%sconst %d", dst(), in.Imm)
	case OpBin:
		return fmt.Sprintf("%s%s %s, %s", dst(), in.Bin, opnd(in.A), opnd(in.B))
	case OpLoadG:
		return fmt.Sprintf("%sloadg %s", dst(), gname())
	case OpStoreG:
		return fmt.Sprintf("storeg %s, %s", gname(), opnd(in.A))
	case OpAddrG:
		return fmt.Sprintf("%saddrg %s", dst(), gname())
	case OpLoad:
		return fmt.Sprintf("%sload %s", dst(), opnd(in.A))
	case OpStore:
		return fmt.Sprintf("store %s, %s", opnd(in.A), opnd(in.B))
	case OpLoadS:
		return fmt.Sprintf("%sloads %s", dst(), sname())
	case OpStoreS:
		return fmt.Sprintf("stores %s, %s", sname(), opnd(in.A))
	case OpAlloc:
		return fmt.Sprintf("%salloc %s", dst(), opnd(in.A))
	case OpFree:
		return fmt.Sprintf("free %s", opnd(in.A))
	case OpLock:
		return fmt.Sprintf("lock %s", opnd(in.A))
	case OpTimedLock:
		return fmt.Sprintf("%stimedlock %s, %d", dst(), opnd(in.A), in.Imm)
	case OpUnlock:
		return fmt.Sprintf("unlock %s", opnd(in.A))
	case OpCall:
		if in.HasDst() {
			return dst() + "call " + callArgs()
		}
		return "call " + callArgs()
	case OpSpawn:
		return dst() + "spawn " + callArgs()
	case OpJoin:
		return fmt.Sprintf("join %s", opnd(in.A))
	case OpOutput:
		return fmt.Sprintf("output %q, %s", f.Text(in), opnd(in.A))
	case OpAssert:
		kw := "assert"
		if in.AssertKind == AssertOracle {
			kw = "oracle"
		}
		return fmt.Sprintf("%s %s, %q", kw, opnd(in.A), f.Text(in))
	case OpYield:
		return "yield"
	case OpSleep:
		return fmt.Sprintf("sleep %s", opnd(in.A))
	case OpNop:
		return "nop"
	case OpWait:
		if in.Imm > 0 {
			return fmt.Sprintf("%swait %s, %s, %d", dst(), opnd(in.A), opnd(in.B), in.Imm)
		}
		return fmt.Sprintf("wait %s, %s", opnd(in.A), opnd(in.B))
	case OpSignal:
		return fmt.Sprintf("signal %s", opnd(in.A))
	case OpBroadcast:
		return fmt.Sprintf("broadcast %s", opnd(in.A))
	case OpChSend:
		if in.Imm > 0 {
			return fmt.Sprintf("%schsend %s, %s, %d", dst(), opnd(in.A), opnd(in.B), in.Imm)
		}
		return fmt.Sprintf("chsend %s, %s", opnd(in.A), opnd(in.B))
	case OpChRecv:
		return fmt.Sprintf("%schrecv %s", dst(), opnd(in.A))
	case OpChClose:
		return fmt.Sprintf("chclose %s", opnd(in.A))
	case OpCAS:
		return fmt.Sprintf("%scas %s, %s, %s", dst(), opnd(in.A), opnd(in.B), opnd(f.Args(in)[0]))
	case OpCheckpoint:
		return fmt.Sprintf("checkpoint %d", in.Site)
	case OpRollback:
		return fmt.Sprintf("rollback %d, %d", in.Site, in.Imm)
	case OpFail:
		return fmt.Sprintf("fail %s, %q", in.FailKind, f.Text(in))
	case OpSleepRand:
		return fmt.Sprintf("sleeprand %s", opnd(in.A))
	case OpBr:
		return fmt.Sprintf("br %s, %s, %s", opnd(in.A), blk(in.Aux), blk(in.Else))
	case OpJmp:
		return fmt.Sprintf("jmp %s", blk(in.Aux))
	case OpRet:
		if in.A.Kind == OperandNone {
			return "ret"
		}
		return fmt.Sprintf("ret %s", opnd(in.A))
	}
	return fmt.Sprintf("<%s?>", in.Op)
}

// refParse is the line parser Parse replaced: strings.Split into lines,
// splitArgs into operand slices and linear name lookups. It is the
// differential oracle for Parse; only stripComment differs from the
// original, which cut comments inside quoted text.
func refParse(src string) (*Module, error) {
	p := &refParser{m: &Module{Name: "module"}}
	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := refStripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("mir parse: line %d: %w", ln+1, err)
		}
	}
	if p.f != nil {
		return nil, fmt.Errorf("mir parse: unterminated function %q", p.f.Name)
	}
	if err := p.resolve(); err != nil {
		return nil, err
	}
	if err := Verify(p.m); err != nil {
		return nil, err
	}
	return p.m, nil
}

func refStripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == ';', c == '/' && i+1 < len(s) && s[i+1] == '/':
			return s[:i]
		}
	}
	return s
}

type refBlockFixup struct {
	fn, blk, idx int
	then, els    string // block names; els empty for jmp
}

type refCalleeFixup struct {
	fn, blk, idx int
	name         string
}

type refParser struct {
	m   *Module
	f   *Function // open function, nil at top level
	fi  int
	cur int // open block index
	// register and slot name tables for the open function
	regs  map[string]int
	bfix  []refBlockFixup
	cfix  []refCalleeFixup
	sawBr bool
}

func (p *refParser) line(line string) error {
	if p.f == nil {
		return p.topLevel(line)
	}
	if line == "}" {
		if len(p.f.Blocks) == 0 {
			return fmt.Errorf("function %q has no blocks", p.f.Name)
		}
		p.m.Functions[p.fi] = *p.f
		p.f = nil
		return nil
	}
	if strings.HasSuffix(line, ":") && !strings.ContainsAny(line, " \t") {
		name := strings.TrimSuffix(line, ":")
		if !validIdent(name) {
			return fmt.Errorf("bad block label %q", name)
		}
		for _, b := range p.f.Blocks {
			if b.Name == name {
				return fmt.Errorf("block %q redeclared", name)
			}
		}
		p.f.Blocks = append(p.f.Blocks, Block{Name: name})
		p.cur = len(p.f.Blocks) - 1
		return nil
	}
	if len(p.f.Blocks) == 0 {
		return fmt.Errorf("instruction before first block label")
	}
	in, err := p.instr(line)
	if err != nil {
		return err
	}
	p.f.Blocks[p.cur].Instrs = append(p.f.Blocks[p.cur].Instrs, in)
	return nil
}

func (p *refParser) topLevel(line string) error {
	switch {
	case strings.HasPrefix(line, "module "):
		name := strings.TrimSpace(strings.TrimPrefix(line, "module "))
		if !validIdent(name) {
			return fmt.Errorf("bad module name %q", name)
		}
		p.m.Name = name
		return nil
	case strings.HasPrefix(line, "global "):
		rest := strings.TrimPrefix(line, "global ")
		name, val, ok := strings.Cut(rest, "=")
		if !ok {
			return fmt.Errorf("global needs '= value'")
		}
		name = strings.TrimSpace(name)
		if !validIdent(name) {
			return fmt.Errorf("bad global name %q", name)
		}
		v, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return fmt.Errorf("global %s: %w", name, err)
		}
		if p.m.GlobalIndex(name) >= 0 {
			return fmt.Errorf("global %q redeclared", name)
		}
		p.m.Globals = append(p.m.Globals, Global{Name: name, Init: v})
		return nil
	case strings.HasPrefix(line, "func "):
		rest := strings.TrimPrefix(line, "func ")
		if !strings.HasSuffix(rest, "{") {
			return fmt.Errorf("func line must end with '{'")
		}
		rest = strings.TrimSpace(strings.TrimSuffix(rest, "{"))
		open := strings.Index(rest, "(")
		close := strings.LastIndex(rest, ")")
		if open < 0 || close < open {
			return fmt.Errorf("malformed func header")
		}
		name := strings.TrimSpace(rest[:open])
		if !validIdent(name) {
			return fmt.Errorf("bad function name %q", name)
		}
		if p.m.FuncIndex(name) >= 0 {
			return fmt.Errorf("function %q redeclared", name)
		}
		f := Function{Name: name}
		p.regs = map[string]int{}
		params := strings.TrimSpace(rest[open+1 : close])
		if params != "" {
			for _, prm := range strings.Split(params, ",") {
				prm = strings.TrimSpace(prm)
				if !strings.HasPrefix(prm, "%") {
					return fmt.Errorf("parameter %q must start with %%", prm)
				}
				rn := prm[1:]
				if !validIdent(rn) {
					return fmt.Errorf("bad parameter name %q", rn)
				}
				if _, dup := p.regs[rn]; dup {
					return fmt.Errorf("duplicate parameter %q", rn)
				}
				p.regs[rn] = len(f.RegNames)
				f.RegNames = append(f.RegNames, rn)
			}
		}
		f.NumParams = len(f.RegNames)
		p.m.Functions = append(p.m.Functions, Function{Name: name})
		p.fi = len(p.m.Functions) - 1
		p.f = &f
		return nil
	}
	return fmt.Errorf("unexpected top-level line %q", line)
}

// reg returns the index of register name, declaring it on first use.
func (p *refParser) reg(name string) int {
	if i, ok := p.regs[name]; ok {
		return i
	}
	i := len(p.f.RegNames)
	p.f.RegNames = append(p.f.RegNames, name)
	p.regs[name] = i
	return i
}

func (p *refParser) slot(name string) int {
	for i, n := range p.f.SlotNames {
		if n == name {
			return i
		}
	}
	p.f.SlotNames = append(p.f.SlotNames, name)
	return len(p.f.SlotNames) - 1
}

func (p *refParser) operand(tok string) (Operand, error) {
	tok = strings.TrimSpace(tok)
	if tok == "" || tok == "_" {
		return None, nil
	}
	if strings.HasPrefix(tok, "%") {
		if !validIdent(tok[1:]) {
			return None, fmt.Errorf("bad register name %q", tok[1:])
		}
		return Reg(p.reg(tok[1:])), nil
	}
	v, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return None, fmt.Errorf("bad operand %q", tok)
	}
	return Imm(v), nil
}

func (p *refParser) global(tok string) (int, error) {
	tok = strings.TrimSpace(tok)
	if !strings.HasPrefix(tok, "@") {
		return 0, fmt.Errorf("expected @global, got %q", tok)
	}
	i := p.m.GlobalIndex(tok[1:])
	if i < 0 {
		return 0, fmt.Errorf("unknown global %q", tok[1:])
	}
	return i, nil
}

// splitArgs splits on top-level commas, leaving quoted strings intact.
func refSplitArgs(s string) []string {
	var out []string
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == ',' && depth == 0:
			out = append(out, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	tail := strings.TrimSpace(s[start:])
	if tail != "" || len(out) > 0 {
		out = append(out, tail)
	}
	return out
}

// cutSiteTag strips a trailing " !site N" recovery-site annotation as
// emitted by FormatInstr. A "!site" not followed by a bare integer to the
// end of the line (e.g. inside a quoted string, which always closes with
// a quote) is left alone.
func refCutSiteTag(line string) (body string, site int32, ok bool) {
	i := strings.LastIndex(line, "!site")
	if i < 0 {
		return line, 0, false
	}
	n, err := atoi32(strings.TrimSpace(line[i+len("!site"):]))
	if err != nil {
		return line, 0, false
	}
	return strings.TrimSpace(line[:i]), n, true
}

func (p *refParser) instr(line string) (Instr, error) {
	body, site, tagged := refCutSiteTag(line)
	in, err := p.instrBody(body)
	if err == nil && tagged {
		in.Site = site
	}
	return in, err
}

func (p *refParser) instrBody(line string) (Instr, error) {
	in := Instr{Dst: -1}
	rest := line
	if strings.HasPrefix(line, "%") {
		dst, r, ok := strings.Cut(line, "=")
		if !ok {
			return in, fmt.Errorf("register line without '='")
		}
		dst = strings.TrimSpace(dst)
		rn := strings.TrimPrefix(dst, "%")
		if !validIdent(rn) {
			return in, fmt.Errorf("bad register name %q", rn)
		}
		in.Dst = int32(p.reg(rn))
		rest = strings.TrimSpace(r)
	}
	op, args, _ := strings.Cut(rest, " ")
	args = strings.TrimSpace(args)
	parts := refSplitArgs(args)
	need := func(n int) error {
		if len(parts) != n {
			return fmt.Errorf("%s expects %d operand(s), got %d", op, n, len(parts))
		}
		return nil
	}
	switch op {
	case "const":
		if err := need(1); err != nil {
			return in, err
		}
		v, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			return in, err
		}
		in.Op, in.Imm = OpConst, v
		return in, nil
	case "loadg", "storeg", "addrg":
		want := 1
		if op == "storeg" {
			want = 2
		}
		if err := need(want); err != nil {
			return in, err
		}
		g, err := p.global(parts[0])
		if err != nil {
			return in, err
		}
		in.Aux = int32(g)
		switch op {
		case "loadg":
			in.Op = OpLoadG
		case "addrg":
			in.Op = OpAddrG
		default:
			in.Op = OpStoreG
			in.A, err = p.operand(parts[1])
		}
		return in, err
	case "load", "free", "lock", "unlock", "join", "sleep", "sleeprand", "alloc":
		if err := need(1); err != nil {
			return in, err
		}
		a, err := p.operand(parts[0])
		if err != nil {
			return in, err
		}
		in.A = a
		switch op {
		case "load":
			in.Op = OpLoad
		case "free":
			in.Op = OpFree
		case "lock":
			in.Op = OpLock
		case "unlock":
			in.Op = OpUnlock
		case "join":
			in.Op = OpJoin
		case "sleep":
			in.Op = OpSleep
		case "sleeprand":
			in.Op = OpSleepRand
		case "alloc":
			in.Op = OpAlloc
		}
		return in, nil
	case "store":
		if err := need(2); err != nil {
			return in, err
		}
		var err error
		if in.A, err = p.operand(parts[0]); err != nil {
			return in, err
		}
		in.B, err = p.operand(parts[1])
		in.Op = OpStore
		return in, err
	case "loads", "stores":
		want := 1
		if op == "stores" {
			want = 2
		}
		if err := need(want); err != nil {
			return in, err
		}
		if !strings.HasPrefix(parts[0], "$") {
			return in, fmt.Errorf("expected $slot, got %q", parts[0])
		}
		sn := parts[0][1:]
		if !validIdent(sn) {
			return in, fmt.Errorf("bad slot name %q", sn)
		}
		in.Aux = int32(p.slot(sn))
		if op == "loads" {
			in.Op = OpLoadS
			return in, nil
		}
		in.Op = OpStoreS
		var err error
		in.A, err = p.operand(parts[1])
		return in, err
	case "signal", "broadcast", "chrecv", "chclose":
		if err := need(1); err != nil {
			return in, err
		}
		a, err := p.operand(parts[0])
		if err != nil {
			return in, err
		}
		in.A = a
		switch op {
		case "signal":
			in.Op = OpSignal
		case "broadcast":
			in.Op = OpBroadcast
		case "chrecv":
			in.Op = OpChRecv
		case "chclose":
			in.Op = OpChClose
		}
		return in, nil
	case "wait", "chsend":
		// Two operands, plus an optional trailing timeout integer for the
		// transformer's timed forms.
		if len(parts) != 2 && len(parts) != 3 {
			return in, fmt.Errorf("%s expects 2 or 3 operand(s), got %d", op, len(parts))
		}
		a, err := p.operand(parts[0])
		if err != nil {
			return in, err
		}
		b, err := p.operand(parts[1])
		if err != nil {
			return in, err
		}
		if len(parts) == 3 {
			t, err := strconv.Atoi(parts[2])
			if err != nil {
				return in, err
			}
			in.Imm = Word(t)
		}
		in.A, in.B = a, b
		if op == "wait" {
			in.Op = OpWait
		} else {
			in.Op = OpChSend
		}
		return in, nil
	case "cas":
		if err := need(3); err != nil {
			return in, err
		}
		a, err := p.operand(parts[0])
		if err != nil {
			return in, err
		}
		b, err := p.operand(parts[1])
		if err != nil {
			return in, err
		}
		c, err := p.operand(parts[2])
		if err != nil {
			return in, err
		}
		in.Op, in.A, in.B = OpCAS, a, b
		p.f.SetArgs(&in, c)
		return in, nil
	case "timedlock":
		if err := need(2); err != nil {
			return in, err
		}
		a, err := p.operand(parts[0])
		if err != nil {
			return in, err
		}
		t, err := strconv.Atoi(parts[1])
		if err != nil {
			return in, err
		}
		in.Op, in.A, in.Imm = OpTimedLock, a, Word(t)
		return in, nil
	case "call", "spawn":
		open := strings.Index(args, "(")
		close := strings.LastIndex(args, ")")
		if open < 0 || close < open {
			return in, fmt.Errorf("%s needs callee(args)", op)
		}
		name := strings.TrimSpace(args[:open])
		in.Aux = -1
		p.cfix = append(p.cfix, refCalleeFixup{p.fi, p.cur, len(p.f.Blocks[p.cur].Instrs), name})
		var callArgs []Operand
		for _, atok := range refSplitArgs(args[open+1 : close]) {
			if atok == "" {
				continue
			}
			a, err := p.operand(atok)
			if err != nil {
				return in, err
			}
			callArgs = append(callArgs, a)
		}
		p.f.SetArgs(&in, callArgs...)
		if op == "call" {
			in.Op = OpCall
		} else {
			in.Op = OpSpawn
		}
		return in, nil
	case "output", "assert", "oracle", "fail":
		if err := need(2); err != nil {
			return in, err
		}
		switch op {
		case "output":
			s, err := strconv.Unquote(parts[0])
			if err != nil {
				return in, fmt.Errorf("output text: %w", err)
			}
			in.Op = OpOutput
			p.f.SetText(&in, s)
			in.A, err = p.operand(parts[1])
			return in, err
		case "fail":
			kind, ok := parseFailKind(parts[0])
			if !ok {
				return in, fmt.Errorf("unknown failure kind %q", parts[0])
			}
			s, err := strconv.Unquote(parts[1])
			if err != nil {
				return in, fmt.Errorf("fail text: %w", err)
			}
			in.Op, in.FailKind = OpFail, kind
			p.f.SetText(&in, s)
			return in, nil
		default:
			a, err := p.operand(parts[0])
			if err != nil {
				return in, err
			}
			s, err := strconv.Unquote(parts[1])
			if err != nil {
				return in, fmt.Errorf("%s text: %w", op, err)
			}
			in.Op, in.A = OpAssert, a
			p.f.SetText(&in, s)
			if op == "oracle" {
				in.AssertKind = AssertOracle
			}
			return in, nil
		}
	case "yield":
		in.Op = OpYield
		return in, need(0)
	case "nop":
		in.Op = OpNop
		return in, need(0)
	case "checkpoint":
		if err := need(1); err != nil {
			return in, err
		}
		site, err := atoi32(parts[0])
		if err != nil {
			return in, err
		}
		in.Op, in.Site = OpCheckpoint, site
		return in, nil
	case "rollback":
		if err := need(2); err != nil {
			return in, err
		}
		site, err := atoi32(parts[0])
		if err != nil {
			return in, err
		}
		maxRetry, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return in, err
		}
		in.Op, in.Site, in.Imm = OpRollback, site, maxRetry
		return in, nil
	case "br":
		if err := need(3); err != nil {
			return in, err
		}
		a, err := p.operand(parts[0])
		if err != nil {
			return in, err
		}
		in.Op, in.A = OpBr, a
		p.bfix = append(p.bfix, refBlockFixup{p.fi, p.cur, len(p.f.Blocks[p.cur].Instrs), parts[1], parts[2]})
		return in, nil
	case "jmp":
		if err := need(1); err != nil {
			return in, err
		}
		in.Op = OpJmp
		p.bfix = append(p.bfix, refBlockFixup{p.fi, p.cur, len(p.f.Blocks[p.cur].Instrs), parts[0], ""})
		return in, nil
	case "ret":
		in.Op = OpRet
		if len(parts) == 0 {
			in.A = None
			return in, nil
		}
		if err := need(1); err != nil {
			return in, err
		}
		var err error
		in.A, err = p.operand(parts[0])
		return in, err
	}
	if bop, ok := ParseBinOp(op); ok {
		if err := need(2); err != nil {
			return in, err
		}
		a, err := p.operand(parts[0])
		if err != nil {
			return in, err
		}
		b, err := p.operand(parts[1])
		if err != nil {
			return in, err
		}
		in.Op, in.Bin, in.A, in.B = OpBin, bop, a, b
		return in, nil
	}
	return in, fmt.Errorf("unknown instruction %q", op)
}

func (p *refParser) resolve() error {
	for _, fx := range p.bfix {
		f := &p.m.Functions[fx.fn]
		in := &f.Blocks[fx.blk].Instrs[fx.idx]
		ti := f.BlockIndex(fx.then)
		if ti < 0 {
			return fmt.Errorf("mir parse: %s: unknown block %q", f.Name, fx.then)
		}
		in.Aux = int32(ti)
		if fx.els != "" {
			ei := f.BlockIndex(fx.els)
			if ei < 0 {
				return fmt.Errorf("mir parse: %s: unknown block %q", f.Name, fx.els)
			}
			in.Else = int32(ei)
		}
	}
	for _, fx := range p.cfix {
		ci := p.m.FuncIndex(fx.name)
		if ci < 0 {
			return fmt.Errorf("mir parse: call to unknown function %q", fx.name)
		}
		p.m.Functions[fx.fn].Blocks[fx.blk].Instrs[fx.idx].Aux = int32(ci)
	}
	return nil
}
