package mir_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/mir"
	"conair/internal/mirgen"
)

// textCase is one input of the text-path differential: a module to print
// and the source text to parse.
type textCase struct {
	name string
	mod  *mir.Module // nil for checked-in sources, which are parsed only
	src  string
}

// textCorpus gathers the differential inputs: the checked-in programs as
// written, the 13 programs light and full, each raw, fix-hardened and
// survival-hardened, and every mirgen template at three sizes over
// several seeds.
func textCorpus(t testing.TB) []textCase {
	var cases []textCase
	for _, pattern := range []string{
		filepath.Join("..", "..", "testdata", "*.mir"),
		filepath.Join("..", "bugs", "testdata", "*.mir"),
	} {
		files, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range files {
			src, err := os.ReadFile(fn)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, textCase{name: fn, src: string(src)})
		}
	}
	for _, bug := range append(bugs.All(), bugs.Corpus()...) {
		for _, cfg := range []bugs.Config{{Light: true, ForceBug: true}, {}} {
			variant := "full"
			if cfg.Light {
				variant = "light"
			}
			raw := bug.Program(cfg)
			cases = append(cases, textCase{name: bug.Name + "/" + variant, mod: raw})
			pos, err := bug.FixSite(raw)
			if err != nil {
				t.Fatalf("%s/%s: fix site: %v", bug.Name, variant, err)
			}
			for _, mode := range []struct {
				name string
				opts core.Options
			}{{"fix", core.FixOptions(pos)}, {"survival", core.DefaultOptions()}} {
				h, err := core.Harden(raw, mode.opts)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", bug.Name, variant, mode.name, err)
				}
				cases = append(cases, textCase{name: bug.Name + "/" + variant + "/" + mode.name, mod: h.Module})
			}
		}
	}
	sizes := []struct{ funcs, stmts int }{{2, 8}, {4, 16}, {8, 32}}
	for kind := mirgen.BugNone; kind <= mirgen.BugCASABA; kind++ {
		for _, sz := range sizes {
			for seed := int64(1); seed <= 4; seed++ {
				cfg := mirgen.Config{Seed: seed, Funcs: sz.funcs, StmtsPerFunc: sz.stmts, Threads: int(seed % 3), Bug: kind}
				cases = append(cases, textCase{name: fmt.Sprintf("mirgen/%v/%d/%d", kind, sz.funcs, seed), mod: mirgen.Gen(cfg)})
			}
		}
	}
	return cases
}

// TestTextDifferential pins Print and Parse to the reference printer and
// parser they replaced: byte-identical text, and deeply equal modules
// (nil versus empty slices and register and slot order included) or
// identical errors. It also bounds Print's size estimate.
func TestTextDifferential(t *testing.T) {
	for _, c := range textCorpus(t) {
		src := c.src
		if c.mod != nil {
			src = mir.Print(c.mod)
			if want := mir.RefPrint(c.mod); src != want {
				t.Errorf("%s: Print differs from the reference at byte %d", c.name, firstDiff(src, want))
				continue
			}
			// Print presizes its builder from the estimate: below the
			// length it would regrow, far above it would waste memory.
			if est := mir.PrintSize(c.mod); est < len(src) || est > len(src)+len(src)/4 {
				t.Errorf("%s: size estimate %d for %d bytes of text", c.name, est, len(src))
			}
		}
		checkParseAgrees(t, c.name, src)
	}
}

// checkParseAgrees fails t unless Parse and the reference parser agree on
// src: the same error, or deeply equal modules.
func checkParseAgrees(t *testing.T, name, src string) {
	t.Helper()
	got, gotErr := mir.Parse(src)
	want, wantErr := mir.RefParse(src)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Errorf("%s: Parse error %v, reference %v", name, gotErr, wantErr)
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Parse and the reference parser build different modules", name)
	}
}

func firstDiff(a, b string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestParseErrorsMatchReference pins every error message and line number
// to the reference parser's on malformed inputs.
func TestParseErrorsMatchReference(t *testing.T) {
	const fn = "func main() {\nentry:\n"
	cases := []string{
		"",
		"module",
		"module bad name",
		"module m\nmodule n\n",
		"global",
		"global g",
		"global g = x",
		"global g = 1\nglobal g = 2",
		"global b@d = 1",
		"bogus",
		"func main()",
		"func main) {",
		"func (x) {",
		"func main(%a, b) {",
		"func main(%a, %a) {",
		"func main(%a,) {",
		"func main(%) {",
		"func main() {\n}",
		"func main() {\nentry:\n  ret\n}\nfunc main() {\nentry:\n  ret\n}",
		"func main() {\nentry:\n  ret",
		"func main() {\n  ret\n}",
		"func main() {\nbad label:\n  ret\n}",
		"func main() {\nb@d:\n  ret\n}",
		"func main() {\nentry:\n  ret\nentry:\n  ret\n}",
		fn + "  frobnicate %x\n}",
		fn + "  %x add 1, 2\n  ret\n}",
		fn + "  %b@d = const 1\n  ret\n}",
		fn + "  %x = const\n  ret\n}",
		fn + "  %x = const q\n  ret\n}",
		fn + "  %x = loadg @nope\n  ret\n}",
		fn + "  %x = loadg g\n  ret\n}",
		fn + "  storeg @g\n  ret\n}",
		fn + "  %x = load %\n  ret\n}",
		fn + "  %x = load 1x\n  ret\n}",
		fn + "  store 1\n  ret\n}",
		fn + "  %x = loads tmp\n  ret\n}",
		fn + "  %x = loads $\n  ret\n}",
		fn + "  stores $s\n  ret\n}",
		fn + "  wait %c\n  ret\n}",
		fn + "  wait %c, %m, x\n  ret\n}",
		fn + "  %x = cas %p, 1\n  ret\n}",
		fn + "  %x = timedlock %m, soon\n  ret\n}",
		fn + "  call f\n  ret\n}",
		fn + "  call f(%b@d)\n  ret\n}",
		fn + "  call nope()\n  ret\n}",
		fn + "  output \"x\"\n  ret\n}",
		fn + "  output x, 1\n  ret\n}",
		fn + "  output \"a;b\", 1\n  ret\n}",
		fn + "  output \"a\\\", 1\n  ret\n}",
		fn + "  assert 1, nope\n  ret\n}",
		fn + "  fail nope, \"x\"\n}",
		fn + "  fail assert, x\n}",
		fn + "  yield 1\n  ret\n}",
		fn + "  checkpoint x\n  ret\n}",
		fn + "  rollback 1\n  ret\n}",
		fn + "  rollback 1, x\n  ret\n}",
		fn + "  br 1, a\n}",
		fn + "  jmp nowhere\n}",
		fn + "  br 1, entry, nowhere\n}",
		fn + "  jmp nowhere\n}\nfunc f() {\nentry:\n  frobnicate\n}",
		fn + "  jmp a\n}\nfunc f() {\nentry:\n  jmp b\n}",
		fn + "  jmp a\n}\nfunc f() {\nentry:\n  call g()\n  ret\n}",
		fn + "  ret 1, 2\n}",
		fn + "  ret %b@d\n}",
		fn + "  %x = add 1 !site x\n  ret\n}",
		fn + "  %x = const 1\n}",
		fn + "  ret\n  %x = const 1\n}",
		"func main(%x) {\nentry:\n  ret\n}",
		"func f(%a, %b) {\nentry:\n  ret\n}\n" + fn + "  call f(1)\n  ret\n}",
		"global g = 1 // note\n" + fn + "  %x = loadg @g ; load\n  ret %x\n}\n",
	}
	for i, src := range cases {
		checkParseAgrees(t, fmt.Sprintf("case %d %q", i, src), src)
	}
}

// TestParseCommentMarkersInText is the regression test for comment
// markers inside quoted text: a module whose output, assert, oracle and
// fail texts contain ';' and "//" must survive Parse(Print(m)).
func TestParseCommentMarkersInText(t *testing.T) {
	b := mir.NewBuilder("quoted")
	f := b.Func("main")
	x := f.Const("x", 1)
	f.Output("a;b", x)
	f.Output("http://host/x", x)
	f.Assert(x, "x; // not a comment")
	f.OracleAssert(x, `"quoted;" \ // text`)
	f.Fail(mir.FailAssert, "end;//")
	m, err := b.Module()
	if err != nil {
		t.Fatal(err)
	}
	text := mir.Print(m)
	m2, err := mir.Parse(text)
	if err != nil {
		t.Fatalf("printed module does not re-parse: %v\n%s", err, text)
	}
	if again := mir.Print(m2); again != text {
		t.Fatalf("round trip changed the text\nfirst:\n%s\nsecond:\n%s", text, again)
	}
	if !strings.Contains(text, `output "a;b", %x`) {
		t.Errorf("printed text lacks the quoted output:\n%s", text)
	}
	checkParseAgrees(t, "quoted", text)
}

// TestParseLongBlocks covers blocks that outgrow a storage chunk, where
// the parser moves the open block into a larger one.
func TestParseLongBlocks(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("global g = 0\n")
	for fn, n := range []int{3, 5000, 1, 9000} {
		fmt.Fprintf(&sb, "func f%d() {\nentry:\n  %%x = const 0\n", fn)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "  %%x = add %%x, %d\n  storeg @g, %%x\n", i)
		}
		sb.WriteString("  jmp last\nlast:\n  ret %x\n}\n")
	}
	sb.WriteString("func main() {\nentry:\n  call f0()\n  call f1()\n  call f2()\n  call f3()\n  ret 0\n}\n")
	checkParseAgrees(t, "long blocks", sb.String())
	if _, err := mir.Parse(sb.String()); err != nil {
		t.Fatal(err)
	}
}
