package mir

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads the textual MIR syntax emitted by Print. The grammar is
// line-oriented:
//
//	module NAME
//	global NAME = INT
//	func NAME(%p0, %p1) {
//	label:
//	  %dst = OP ...
//	  OP ...
//	}
//
// Comments run from ';' or '//' to end of line; inside a quoted string
// both are text. Operands are registers (%name) or integer immediates;
// globals are @name, stack slots $name, branch targets are block labels.
// Parse verifies the module before returning it.
//
// The parser reads src once, line by line. Lines and their fields are
// substrings of src, names resolve through maps, and instructions are
// parsed in place into large chunks that blocks then share, so its
// allocations grow with the number of functions and chunks, not with
// every line and operand.
func Parse(src string) (*Module, error) {
	p := &parser{
		m:         &Module{Name: "module"},
		globals:   map[string]int{},
		funcs:     map[string]int{},
		regs:      map[string]int{},
		slots:     map[string]int{},
		blocks:    map[string]int{},
		linesLeft: strings.Count(src, "\n") + 1,
	}
	sc := lineScanner{src: src, marks: [3]int{-1, -1, -1}}
	for ln := 1; ; ln++ {
		line, more := sc.next()
		if line = strings.TrimSpace(line); line != "" {
			if err := p.line(line); err != nil {
				return nil, fmt.Errorf("mir parse: line %d: %w", ln, err)
			}
		}
		p.linesLeft--
		if !more {
			break
		}
	}
	if p.f != nil {
		return nil, fmt.Errorf("mir parse: unterminated function %q", p.f.Name)
	}
	if p.jumpErr != nil {
		return nil, p.jumpErr
	}
	for _, fx := range p.calls {
		ci, ok := p.funcs[fx.name]
		if !ok {
			return nil, fmt.Errorf("mir parse: call to unknown function %q", fx.name)
		}
		p.m.Functions[fx.fn].Blocks[fx.blk].Instrs[fx.idx].Aux = int32(ci)
	}
	if err := Verify(p.m); err != nil {
		return nil, err
	}
	return p.m, nil
}

// MustParse is Parse but panics on error; for tests and fixed fixtures.
func MustParse(src string) *Module {
	m, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return m
}

// validIdent reports whether s can be used as a module, function,
// global, block, register, or slot name and survive a print/re-parse
// round trip: non-empty and free of whitespace and the delimiter
// characters the grammar uses (commas, quotes, parens, '%', '@', ...).
func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '_', c == '.', c == '$', c == '-':
		default:
			return false
		}
	}
	return true
}

// lineScanner cuts the source into lines. It keeps the offset of the
// next ';', '/' and '"' in the source, so a line is searched for a
// comment only when one of them falls inside it: each search runs on to
// the next occurrence, and the three searches together pass over the
// source once.
type lineScanner struct {
	src string
	pos int // offset of the next line
	// marks[k] is the offset of the first commentBytes[k] at or after the
	// line start it was last searched from, len(src) if there is none.
	marks [3]int
}

var commentBytes = [3]byte{';', '/', '"'}

// next returns the next line without its comment, which runs from the
// first ';' or "//" outside a quoted string, and whether more lines
// follow.
func (s *lineScanner) next() (line string, more bool) {
	start, end := s.pos, len(s.src)
	if i := strings.IndexByte(s.src[start:], '\n'); i >= 0 {
		end, more = start+i, true
	}
	s.pos = end + 1
	line = s.src[start:end]
	marked := false
	for k, c := range commentBytes {
		if s.marks[k] < start {
			s.marks[k] = len(s.src)
			if i := strings.IndexByte(s.src[start:], c); i >= 0 {
				s.marks[k] = start + i
			}
		}
		marked = marked || s.marks[k] < end
	}
	if marked {
		line = stripComment(line)
	}
	return line, more
}

// stripComment cuts s at the first ';' or "//" outside a quoted string.
func stripComment(s string) string {
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

// argByte marks the bytes splitArgs acts on.
var argByte = [256]bool{',': true, '(': true, ')': true, '"': true, '\\': true}

// jumpFixup is a br or jmp of the open function whose targets resolve
// when the function closes; els is empty for jmp.
type jumpFixup struct {
	blk, idx  int
	then, els string
}

// callFixup is a call or spawn whose callee resolves after the last line.
type callFixup struct {
	fn, blk, idx int
	name         string
}

// maxChunk caps the instructions of one storage chunk (about 750 KB),
// unless a single block is longer.
const maxChunk = 4096

type parser struct {
	m  *Module
	f  *Function // open function, nil at top level
	fi int

	// Name tables: module-wide, then for the open function.
	globals, funcs, regs, slots, blocks map[string]int
	// regNames collects the open function's register names, which it
	// receives in one exactly sized slice when it closes.
	regNames []string

	// instrs is the current storage chunk; the open block's instructions
	// are instrs[open:]. A block's Instrs become a capacity-limited view
	// of its chunk when the block ends, so appending to them later
	// copies rather than overwriting a neighbour.
	instrs    []Instr
	open      int
	linesLeft int // lines not yet finished: an upper bound on instructions to come

	jumps    []jumpFixup // of the open function
	calls    []callFixup
	jumpErr  error     // first unresolved block reference, reported after the last line
	parts    []string  // the current line's operand fields
	operands []Operand // the current call's arguments
}

func (p *parser) line(line string) error {
	if p.f == nil {
		return p.topLevel(line)
	}
	if line == "}" {
		return p.endFunc()
	}
	if line[len(line)-1] == ':' && strings.IndexByte(line, ' ') < 0 && strings.IndexByte(line, '\t') < 0 {
		name := line[:len(line)-1]
		if !validIdent(name) {
			return fmt.Errorf("bad block label %q", name)
		}
		if _, dup := p.blocks[name]; dup {
			return fmt.Errorf("block %q redeclared", name)
		}
		p.endBlock()
		p.blocks[name] = len(p.f.Blocks)
		p.f.Blocks = append(p.f.Blocks, Block{Name: name})
		return nil
	}
	if len(p.f.Blocks) == 0 {
		return fmt.Errorf("instruction before first block label")
	}
	if len(p.instrs) == cap(p.instrs) {
		p.newChunk()
	}
	// Parse straight into the next chunk slot. Chunk memory is fresh
	// and zeroed, and a line that fails to parse ends the parse.
	p.instrs = p.instrs[:len(p.instrs)+1]
	in := &p.instrs[len(p.instrs)-1]
	in.Dst = -1
	return p.instr(in, line)
}

// newChunk starts a storage chunk sized to the instructions that can
// still come, and moves the open block's instructions into it so every
// block stays contiguous. A block longer than maxChunk at least doubles
// its chunk, so moving it costs amortized constant time per instruction.
func (p *parser) newChunk() {
	n := len(p.instrs) - p.open
	chunk := make([]Instr, n, n+min(p.linesLeft, max(n, maxChunk)))
	copy(chunk, p.instrs[p.open:])
	p.instrs, p.open = chunk, 0
}

// endBlock hands the open block its instructions.
func (p *parser) endBlock() {
	if len(p.f.Blocks) == 0 {
		return
	}
	if n := len(p.instrs); n > p.open {
		p.f.Blocks[len(p.f.Blocks)-1].Instrs = p.instrs[p.open:n:n]
		p.open = n
	}
}

// endFunc closes the open function and resolves its branch targets. An
// unknown target is kept to report once every line has parsed, as a
// syntax error on a later line takes precedence.
func (p *parser) endFunc() error {
	f := p.f
	if len(f.Blocks) == 0 {
		return fmt.Errorf("function %q has no blocks", f.Name)
	}
	p.endBlock()
	f.RegNames = append([]string(nil), p.regNames...)
	for _, fx := range p.jumps {
		in := &f.Blocks[fx.blk].Instrs[fx.idx]
		then, ok := p.blocks[fx.then]
		if !ok {
			p.unknownBlock(fx.then)
			break
		}
		in.Aux = int32(then)
		if fx.els != "" {
			els, ok := p.blocks[fx.els]
			if !ok {
				p.unknownBlock(fx.els)
				break
			}
			in.Else = int32(els)
		}
	}
	p.m.Functions[p.fi] = *f
	p.f = nil
	return nil
}

func (p *parser) unknownBlock(name string) {
	if p.jumpErr == nil {
		p.jumpErr = fmt.Errorf("mir parse: %s: unknown block %q", p.f.Name, name)
	}
}

func (p *parser) topLevel(line string) error {
	switch {
	case strings.HasPrefix(line, "module "):
		name := strings.TrimSpace(line[len("module "):])
		if !validIdent(name) {
			return fmt.Errorf("bad module name %q", name)
		}
		p.m.Name = name
		return nil
	case strings.HasPrefix(line, "global "):
		name, val, ok := strings.Cut(line[len("global "):], "=")
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
		if _, dup := p.globals[name]; dup {
			return fmt.Errorf("global %q redeclared", name)
		}
		p.globals[name] = len(p.m.Globals)
		p.m.Globals = append(p.m.Globals, Global{Name: name, Init: v})
		return nil
	case strings.HasPrefix(line, "func "):
		rest := line[len("func "):]
		if !strings.HasSuffix(rest, "{") {
			return fmt.Errorf("func line must end with '{'")
		}
		rest = strings.TrimSpace(rest[:len(rest)-1])
		open := strings.IndexByte(rest, '(')
		close := strings.LastIndexByte(rest, ')')
		if open < 0 || close < open {
			return fmt.Errorf("malformed func header")
		}
		name := strings.TrimSpace(rest[:open])
		if !validIdent(name) {
			return fmt.Errorf("bad function name %q", name)
		}
		if _, dup := p.funcs[name]; dup {
			return fmt.Errorf("function %q redeclared", name)
		}
		f := Function{Name: name}
		clear(p.regs)
		p.regNames = p.regNames[:0]
		clear(p.slots)
		clear(p.blocks)
		p.jumps = p.jumps[:0]
		if params := strings.TrimSpace(rest[open+1 : close]); params != "" {
			for more := true; more; {
				var prm string
				prm, params, more = strings.Cut(params, ",")
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
				p.regs[rn] = len(p.regNames)
				p.regNames = append(p.regNames, rn)
			}
		}
		f.NumParams = len(p.regNames)
		p.funcs[name] = len(p.m.Functions)
		p.m.Functions = append(p.m.Functions, Function{Name: name})
		p.fi = len(p.m.Functions) - 1
		p.f = &f
		return nil
	}
	return fmt.Errorf("unexpected top-level line %q", line)
}

// reg returns the index of register name, declaring it on first use.
func (p *parser) reg(name string) int {
	if i, ok := p.regs[name]; ok {
		return i
	}
	i := len(p.regNames)
	p.regNames = append(p.regNames, name)
	p.regs[name] = i
	return i
}

// slot returns the index of stack slot name, declaring it on first use.
func (p *parser) slot(name string) int {
	if i, ok := p.slots[name]; ok {
		return i
	}
	i := len(p.f.SlotNames)
	p.f.SlotNames = append(p.f.SlotNames, name)
	p.slots[name] = i
	return i
}

// operand parses a register or immediate field; fields come trimmed.
func (p *parser) operand(tok string) (Operand, error) {
	if tok == "" || tok == "_" {
		return None, nil
	}
	if tok[0] == '%' {
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

func (p *parser) global(tok string) (int, error) {
	if !strings.HasPrefix(tok, "@") {
		return 0, fmt.Errorf("expected @global, got %q", tok)
	}
	i, ok := p.globals[tok[1:]]
	if !ok {
		return 0, fmt.Errorf("unknown global %q", tok[1:])
	}
	return i, nil
}

// splitArgs cuts s at top-level commas, leaving quoted strings and
// parenthesized lists intact, into p.parts: trimmed substrings of s, none
// for an empty s.
func (p *parser) splitArgs(s string) []string {
	out := p.parts[:0]
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !argByte[c] {
			continue
		}
		switch {
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
	p.parts = out
	return out
}

// atoi32 is strconv.Atoi for values that must fit in 32 bits.
func atoi32(s string) (int32, error) {
	n, err := strconv.Atoi(s)
	if err == nil && int(int32(n)) != n {
		return 0, &strconv.NumError{Func: "Atoi", Num: s, Err: strconv.ErrRange}
	}
	return int32(n), err
}

// cutSiteTag strips a trailing " !site N" recovery-site annotation as
// emitted by FormatInstr. A "!site" not followed by a bare integer to the
// end of the line (e.g. inside a quoted string, which always closes with
// a quote) is left alone. The line comes trimmed, so the integer is its
// tail and the tag is found scanning back from the end.
func cutSiteTag(line string) (body string, site int32, ok bool) {
	j := len(line)
	for j > 0 && line[j-1] >= '0' && line[j-1] <= '9' {
		j--
	}
	if j == len(line) {
		return line, 0, false
	}
	num := line[j:]
	if j > 0 && (line[j-1] == '+' || line[j-1] == '-') {
		num = line[j-1:]
		j--
	}
	head := strings.TrimSpace(line[:j])
	if len(head) < len("!site") || head[len(head)-len("!site"):] != "!site" {
		return line, 0, false
	}
	n, err := atoi32(num)
	if err != nil {
		return line, 0, false
	}
	return strings.TrimSpace(head[:len(head)-len("!site")]), n, true
}

func (p *parser) instr(in *Instr, line string) error {
	body, site, tagged := cutSiteTag(line)
	err := p.instrBody(in, body)
	if err == nil && tagged {
		in.Site = site
	}
	return err
}

// need checks an instruction's operand count.
func need(op string, parts []string, n int) error {
	if len(parts) != n {
		return fmt.Errorf("%s expects %d operand(s), got %d", op, n, len(parts))
	}
	return nil
}

// instrBody parses one instruction into in, whose Dst is preset to -1:
// the mnemonic names the op, and the op's descriptor lists the fields
// that follow it.
func (p *parser) instrBody(in *Instr, line string) error {
	rest := line
	if strings.HasPrefix(line, "%") {
		dst, r, ok := strings.Cut(line, "=")
		if !ok {
			return fmt.Errorf("register line without '='")
		}
		dst = strings.TrimSpace(dst)
		rn := strings.TrimPrefix(dst, "%")
		if !validIdent(rn) {
			return fmt.Errorf("bad register name %q", rn)
		}
		in.Dst = int32(p.reg(rn))
		rest = strings.TrimSpace(r)
	}
	op, args, _ := strings.Cut(rest, " ")
	args = strings.TrimSpace(args)
	mn, ok := mnemonics[op]
	if !ok {
		return fmt.Errorf("unknown instruction %q", op)
	}
	in.Op, in.Bin = mn.op, mn.bin
	if mn.oracle {
		in.AssertKind = AssertOracle
	}
	info := &opTable[mn.op]
	syntax := info.syntax
	if len(syntax) == 1 && syntax[0] == fieldCall {
		return p.call(in, op, args)
	}
	parts := p.splitArgs(args)
	if n := len(parts); n > len(syntax) || n < len(syntax)-info.optional {
		if least := len(syntax) - info.optional; info.optional > 0 && least > 0 {
			return fmt.Errorf("%s expects %d or %d operand(s), got %d", op, least, len(syntax), n)
		}
		return need(op, parts, len(syntax))
	}
	var targets [2]string
	nt := 0
	var err error
	for i, tok := range parts {
		switch syntax[i] {
		case fieldA:
			in.A, err = p.operand(tok)
		case fieldB:
			in.B, err = p.operand(tok)
		case fieldArg:
			var a Operand
			if a, err = p.operand(tok); err == nil {
				p.f.SetArgs(in, a)
			}
		case fieldGlobal:
			var g int
			g, err = p.global(tok)
			in.Aux = int32(g)
		case fieldSlot:
			if !strings.HasPrefix(tok, "$") {
				return fmt.Errorf("expected $slot, got %q", tok)
			}
			if !validIdent(tok[1:]) {
				return fmt.Errorf("bad slot name %q", tok[1:])
			}
			in.Aux = int32(p.slot(tok[1:]))
		case fieldBlock:
			targets[nt] = tok
			nt++
		case fieldImm:
			in.Imm, err = strconv.ParseInt(tok, 10, 64)
		case fieldTimeout:
			var t int
			t, err = strconv.Atoi(tok)
			in.Imm = Word(t)
		case fieldSite:
			in.Site, err = atoi32(tok)
		case fieldText:
			var s string
			if s, err = strconv.Unquote(tok); err != nil {
				return fmt.Errorf("%s text: %w", op, err)
			}
			p.f.SetText(in, s)
		case fieldFailKind:
			if in.FailKind, ok = parseFailKind(tok); !ok {
				return fmt.Errorf("unknown failure kind %q", tok)
			}
		}
		if err != nil {
			return err
		}
	}
	if info.Aux == auxBlock {
		p.jumps = append(p.jumps, jumpFixup{len(p.f.Blocks) - 1, len(p.instrs) - 1 - p.open, targets[0], targets[1]})
	}
	return nil
}

// call parses the "callee(arg, ...)" of a call or spawn; the callee
// resolves after the last line.
func (p *parser) call(in *Instr, op, args string) error {
	open := strings.Index(args, "(")
	close := strings.LastIndex(args, ")")
	if open < 0 || close < open {
		return fmt.Errorf("%s needs callee(args)", op)
	}
	name := strings.TrimSpace(args[:open])
	in.Aux = -1
	p.calls = append(p.calls, callFixup{p.fi, len(p.f.Blocks) - 1, len(p.instrs) - 1 - p.open, name})
	parts := p.splitArgs(args[open+1 : close])
	ops := p.operands[:0]
	for _, atok := range parts {
		if atok == "" {
			continue
		}
		a, err := p.operand(atok)
		if err != nil {
			return err
		}
		ops = append(ops, a)
	}
	p.operands = ops
	p.f.SetArgs(in, ops...)
	return nil
}

func parseFailKind(s string) (FailKind, bool) {
	for i, n := range failNames {
		if n == s {
			return FailKind(i), true
		}
	}
	return 0, false
}
