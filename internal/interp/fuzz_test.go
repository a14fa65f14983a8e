package interp

import (
	"os"
	"path/filepath"
	"testing"

	"conair/internal/mir"
)

// FuzzCompile checks the compiled form of any program that parses and
// verifies: its Clone prints byte-identically (which exercises the text
// and argument pools), Compile lowers it, and a run bounded by MaxSteps
// ends without panicking. Seeded from the checked-in testdata programs.
func FuzzCompile(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mir"))
	if err != nil {
		f.Fatal(err)
	}
	for _, fn := range files {
		src, err := os.ReadFile(fn)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("func main() {\nentry:\n  %p = alloc 4\n  %ok = cas %p, 0, 7\n  output \"ok\", %ok\n  ret %ok\n}\n")
	f.Add("func f(%a, %b) {\nentry:\n  %s = add %a, %b\n  ret %s\n}\nfunc main() {\nentry:\n  %r = call f(1, 2)\n  %t = spawn f(%r, 3)\n  join %t\n  assert %r, \"sum\"\n  ret %r\n}\n")
	f.Add("func main() {\nentry:\n  %p = alloc 9223372036854775807\n  %q = alloc 100000\n  store %q, 1\n  ret %p\n}\n")
	f.Add("func main() {\nentry:\n  checkpoint 1\n  %x = const 0\n  br %x, ok, bad !site 1\nok:\n  ret 0\nbad:\n  rollback 1, 3\n  fail assert, \"boom\" !site 1\n}\n")

	f.Fuzz(func(t *testing.T, src string) {
		m, err := mir.Parse(src)
		if err != nil {
			return // rejected input
		}
		text := mir.Print(m)
		if clone := mir.Print(m.Clone()); clone != text {
			t.Fatalf("clone prints differently\noriginal:\n%s\nclone:\n%s", text, clone)
		}
		p := Compile(m)
		if len(p.funcs) != len(m.Functions) {
			t.Fatalf("%d compiled functions for %d", len(p.funcs), len(m.Functions))
		}
		if m.Main() < 0 {
			return
		}
		RunModule(m, Config{MaxSteps: 2000})
	})
}
