package mir

import (
	"strings"
	"testing"
	"testing/quick"
)

const sampleSrc = `
module sample
global counter = 0
global mtx = 0

func main() {
entry:
  %t = spawn worker(7)
  %x = loadg @counter
  %y = add %x, 1
  storeg @counter, %y
  br %y, done, more
more:
  %p = addrg @mtx
  lock %p
  unlock %p
  join %t
  jmp done
done:
  output "count", %y
  ret 0
}

func worker(%n) {
entry:
  %m = mul %n, 2
  assert %m, "worker arg"
  stores $tmp, %m
  %z = loads $tmp
  ret %z
}
`

func TestParsePrintRoundTrip(t *testing.T) {
	m, err := Parse(sampleSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	text := Print(m)
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse printed module: %v\n%s", err, text)
	}
	if Print(m2) != text {
		t.Fatalf("print not a fixed point:\n--- first\n%s\n--- second\n%s", text, Print(m2))
	}
}

func TestParsedShape(t *testing.T) {
	m := MustParse(sampleSrc)
	if m.Name != "sample" {
		t.Errorf("module name = %q", m.Name)
	}
	if len(m.Globals) != 2 || m.GlobalIndex("mtx") != 1 {
		t.Errorf("globals parsed wrong: %+v", m.Globals)
	}
	mi := m.Main()
	if mi < 0 {
		t.Fatal("no main")
	}
	f := &m.Functions[mi]
	if len(f.Blocks) != 3 {
		t.Fatalf("main has %d blocks, want 3", len(f.Blocks))
	}
	wi := m.FuncIndex("worker")
	if wi < 0 || m.Functions[wi].NumParams != 1 {
		t.Fatalf("worker not parsed correctly")
	}
	spawn := &f.Blocks[0].Instrs[0]
	if spawn.Op != OpSpawn || int(spawn.Aux) != wi || len(f.Args(spawn)) != 1 {
		t.Errorf("spawn parsed wrong: %+v", spawn)
	}
	if m.Functions[wi].SlotNames[0] != "tmp" {
		t.Errorf("slot names: %v", m.Functions[wi].SlotNames)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown instr":    "func main() {\nentry:\n  frobnicate %x\n}",
		"unknown global":   "func main() {\nentry:\n  %x = loadg @nope\n  ret\n}",
		"unknown block":    "func main() {\nentry:\n  jmp nowhere\n}",
		"unknown callee":   "func main() {\nentry:\n  call nope()\n  ret\n}",
		"redeclared block": "func main() {\nentry:\n  ret\nentry:\n  ret\n}",
		"main with params": "func main(%x) {\nentry:\n  ret\n}",
		"no terminator":    "func main() {\nentry:\n  %x = const 1\n}",
		"instr after term": "func main() {\nentry:\n  ret\n  %x = const 1\n}",
		"bad arity":        "func f(%a, %b) {\nentry:\n  ret\n}\nfunc main() {\nentry:\n  call f(1)\n  ret\n}",
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected parse/verify error, got none", name)
		}
	}
}

func TestBuilderProducesVerifiedModule(t *testing.T) {
	b := NewBuilder("built")
	g := b.Global("g", 5)
	f := b.Func("main")
	x := f.LoadG("x", g)
	one := f.Const("one", 1)
	y := f.Bin("y", BinAdd, x, one)
	thenB := f.NewBlock("then")
	elseB := f.NewBlock("else")
	f.Br(y, thenB, elseB)
	f.SetBlock(thenB)
	f.Output("val", y)
	f.Ret(Imm(0))
	f.SetBlock(elseB)
	f.Ret(Imm(1))
	m, err := b.Module()
	if err != nil {
		t.Fatalf("builder: %v", err)
	}
	if got := m.NumInstrs(); got != 7 {
		t.Errorf("NumInstrs = %d, want 7", got)
	}
	// Round-trip through text too.
	if _, err := Parse(Print(m)); err != nil {
		t.Fatalf("builder output does not reparse: %v\n%s", err, Print(m))
	}
}

func TestBuilderForwardCall(t *testing.T) {
	b := NewBuilder("fwd")
	f := b.Func("main")
	f.Call("", "helper")
	f.Ret(None)
	h := b.Func("helper")
	h.Ret(None)
	m, err := b.Module()
	if err != nil {
		t.Fatalf("forward call: %v", err)
	}
	call := &m.Functions[0].Blocks[0].Instrs[0]
	if int(call.Aux) != m.FuncIndex("helper") {
		t.Errorf("forward call not fixed up: callee=%d", call.Aux)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad")
	f := b.Func("main")
	f.Call("", "missing")
	f.Ret(None)
	if _, err := b.Module(); err == nil {
		t.Error("undeclared callee should fail")
	}

	b2 := NewBuilder("bad2")
	b2.Global("g", 0)
	b2.Global("g", 1)
	f2 := b2.Func("main")
	f2.Ret(None)
	if _, err := b2.Module(); err == nil {
		t.Error("duplicate global should fail")
	}
}

func TestBuilderAutoTerminates(t *testing.T) {
	b := NewBuilder("auto")
	f := b.Func("main")
	f.Const("x", 1)
	m, err := b.Module()
	if err != nil {
		t.Fatalf("auto-terminate: %v", err)
	}
	blk := &m.Functions[0].Blocks[0]
	if blk.Terminator().Op != OpRet {
		t.Errorf("expected implicit ret, got %v", blk.Terminator().Op)
	}
}

func TestCFG(t *testing.T) {
	m := MustParse(`
func main() {
a:
  %x = const 1
  br %x, b, c
b:
  jmp d
c:
  jmp d
d:
  br %x, a, e
e:
  ret
}
func dead() {
x:
  ret
}`)
	f := &m.Functions[0]
	c := BuildCFG(f)
	if len(c.Succs[0]) != 2 {
		t.Errorf("block a succs = %v", c.Succs[0])
	}
	d := f.BlockIndex("d")
	if len(c.Preds[d]) != 2 {
		t.Errorf("block d preds = %v", c.Preds[d])
	}
	a := f.BlockIndex("a")
	if len(c.Preds[a]) != 1 {
		t.Errorf("block a preds = %v (loop edge expected)", c.Preds[a])
	}
	if c.RPO[0] != 0 {
		t.Errorf("RPO must start at entry, got %v", c.RPO)
	}
	for b := range f.Blocks {
		if !c.Reachable[b] {
			t.Errorf("block %d should be reachable", b)
		}
	}
	e := f.BlockIndex("e")
	if !c.ReachesWithout(a, e, nil) {
		t.Error("a should reach e")
	}
	if c.ReachesWithout(a, e, map[int]bool{d: true}) {
		t.Error("a should not reach e when d is a barrier")
	}
}

func TestCallSites(t *testing.T) {
	m := MustParse(`
func callee(%x) {
e:
  ret %x
}
func one() {
e:
  %a = call callee(1)
  ret
}
func two() {
e:
  %a = call callee(2)
  %b = spawn callee(3)
  ret
}`)
	sites := CallSites(m, m.FuncIndex("callee"))
	if len(sites) != 3 {
		t.Fatalf("CallSites = %v, want 3", sites)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		in    Instr
		basic DestroyClass
		ext   DestroyClass
	}{
		{Instr{Op: OpConst}, DestroyNone, DestroyNone},
		{Instr{Op: OpBin}, DestroyNone, DestroyNone},
		{Instr{Op: OpLoadG}, DestroyNone, DestroyNone},
		{Instr{Op: OpLoad}, DestroyNone, DestroyNone},
		{Instr{Op: OpLoadS}, DestroyNone, DestroyNone},
		{Instr{Op: OpStoreG}, DestroySharedWrite, DestroySharedWrite},
		{Instr{Op: OpStore}, DestroySharedWrite, DestroySharedWrite},
		{Instr{Op: OpStoreS}, DestroyLocalWrite, DestroyLocalWrite},
		{Instr{Op: OpOutput}, DestroyIO, DestroyIO},
		{Instr{Op: OpFree}, DestroyRelease, DestroyRelease},
		{Instr{Op: OpUnlock}, DestroyRelease, DestroyRelease},
		{Instr{Op: OpCall}, DestroyCall, DestroyCall},
		{Instr{Op: OpAlloc}, DestroyCall, DestroyNone},
		{Instr{Op: OpLock}, DestroyCall, DestroyNone},
		{Instr{Op: OpTimedLock}, DestroyCall, DestroyNone},
		{Instr{Op: OpYield}, DestroyNone, DestroyNone},
		{Instr{Op: OpSleep}, DestroyNone, DestroyNone},
	}
	for _, c := range cases {
		if got := Classify(&c.in, PolicyBasic); got != c.basic {
			t.Errorf("Classify(%v, basic) = %v, want %v", c.in.Op, got, c.basic)
		}
		if got := Classify(&c.in, PolicyExtended); got != c.ext {
			t.Errorf("Classify(%v, extended) = %v, want %v", c.in.Op, got, c.ext)
		}
	}
}

func TestBinOpEval(t *testing.T) {
	cases := []struct {
		op      BinOp
		x, y, w Word
	}{
		{BinAdd, 2, 3, 5},
		{BinSub, 2, 3, -1},
		{BinMul, 4, 3, 12},
		{BinDiv, 7, 2, 3},
		{BinDiv, 7, 0, 0},
		{BinMod, 7, 3, 1},
		{BinMod, 7, 0, 0},
		{BinAnd, 6, 3, 2},
		{BinOr, 6, 3, 7},
		{BinXor, 6, 3, 5},
		{BinShl, 1, 4, 16},
		{BinShr, 16, 4, 1},
		{BinEq, 3, 3, 1},
		{BinEq, 3, 4, 0},
		{BinNe, 3, 4, 1},
		{BinLt, 3, 4, 1},
		{BinLe, 4, 4, 1},
		{BinGt, 5, 4, 1},
		{BinGe, 4, 5, 0},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.x, c.y); got != c.w {
			t.Errorf("%v.Eval(%d,%d) = %d, want %d", c.op, c.x, c.y, got, c.w)
		}
	}
}

func TestBinOpMnemonicsRoundTrip(t *testing.T) {
	for op := BinAdd; op <= BinGe; op++ {
		got, ok := ParseBinOp(op.String())
		if !ok || got != op {
			t.Errorf("ParseBinOp(%q) = %v,%v", op.String(), got, ok)
		}
	}
	if _, ok := ParseBinOp("nope"); ok {
		t.Error("ParseBinOp accepted garbage")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := MustParse(sampleSrc)
	c := m.Clone()
	c.Globals[0].Init = 99
	c.Functions[0].Blocks[0].Instrs[0].Op = OpNop
	c.Functions[1].SetText(&c.Functions[1].Blocks[0].Instrs[1], "changed")
	if m.Globals[0].Init == 99 {
		t.Error("clone shares globals")
	}
	if m.Functions[0].Blocks[0].Instrs[0].Op == OpNop {
		t.Error("clone shares instructions")
	}
	if f := &m.Functions[1]; f.Text(&f.Blocks[0].Instrs[1]) != "worker arg" {
		t.Error("clone shares the text pool")
	}
}

func TestVerifyCatchesBadIndices(t *testing.T) {
	m := MustParse(sampleSrc)
	m.Functions[0].Blocks[0].Instrs[0].Aux = 99
	if err := Verify(m); err == nil {
		t.Error("verify should reject out-of-range callee")
	}

	m2 := MustParse(sampleSrc)
	m2.Functions[0].Blocks[0].Instrs[1].Aux = -1
	if err := Verify(m2); err == nil {
		t.Error("verify should reject out-of-range global")
	}

	m3 := MustParse(sampleSrc)
	m3.Functions[0].Blocks[0].Instrs[1].Dst = 999
	if err := Verify(m3); err == nil {
		t.Error("verify should reject out-of-range dst")
	}
}

// Property: Eval of comparison operators always returns 0 or 1, and
// add/sub are inverses.
func TestQuickBinOpProperties(t *testing.T) {
	cmp := func(x, y Word) bool {
		for _, op := range []BinOp{BinEq, BinNe, BinLt, BinLe, BinGt, BinGe} {
			v := op.Eval(x, y)
			if v != 0 && v != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(cmp, nil); err != nil {
		t.Errorf("comparison range property: %v", err)
	}
	inverse := func(x, y Word) bool {
		return BinSub.Eval(BinAdd.Eval(x, y), y) == x
	}
	if err := quick.Check(inverse, nil); err != nil {
		t.Errorf("add/sub inverse property: %v", err)
	}
}

// Property: Pos ordering is a strict total order consistent with equality.
func TestQuickPosOrdering(t *testing.T) {
	prop := func(a, b Pos) bool {
		less, greater := a.Less(b), b.Less(a)
		if a == b {
			return !less && !greater
		}
		return less != greater
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("pos ordering property: %v", err)
	}
}

func TestUses(t *testing.T) {
	var f Function
	in := Instr{Op: OpCall, A: Reg(1), B: Imm(3)}
	f.SetArgs(&in, Reg(2), Imm(4), Reg(5))
	got := f.Uses(&in, nil)
	want := []int{1, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("Uses = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Uses = %v, want %v", got, want)
		}
	}
}

func TestPrintContainsStrings(t *testing.T) {
	m := MustParse(sampleSrc)
	text := Print(m)
	for _, want := range []string{
		"module sample", "global counter = 0", "func worker(%n)",
		`output "count", %y`, `assert %m, "worker arg"`, "stores $tmp, %m",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("printed module missing %q:\n%s", want, text)
		}
	}
}
