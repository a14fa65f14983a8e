package mir

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParse checks the parser never panics, agrees with the reference
// parser it replaced (the same error, or deeply equal modules), and that
// Parse/Print reach a fixed point: anything that parses must print to
// text that re-parses to the identical printout, which the reference
// printer reproduces byte for byte. Seeded from the checked-in testdata
// programs.
func FuzzParse(f *testing.F) {
	for _, pattern := range []string{
		filepath.Join("..", "..", "testdata", "*.mir"),
		// The checked-in real-bug corpus models exercise the condvar,
		// channel and cas instructions on realistic programs.
		filepath.Join("..", "bugs", "testdata", "*.mir"),
	} {
		files, err := filepath.Glob(pattern)
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
	}
	f.Add("module m\nfunc main() {\nentry:\n  ret 0\n}\n")
	f.Add("global g = 1\nfunc main() {\nentry:\n  %v = loadg @g\n  ret %v\n}\n")
	f.Add("func main() {\nentry:\n  %t = spawn w()\n  join %t\n  ret 0\n}\nfunc w() {\nentry:\n  yield\n  ret 0\n}\n")
	f.Add("loadg")
	f.Add("func main() {\nentry:\n  loads $\n}\n")
	// Synchronization-primitive seeds: plain and timed (hardened) forms.
	f.Add("global cv = 0\nglobal m = 0\nfunc main() {\nentry:\n  %c = addrg @cv\n  %m = addrg @m\n  lock %m\n  wait %c, %m\n  signal %c\n  broadcast %c\n  unlock %m\n  ret 0\n}\n")
	f.Add("global cv = 0\nglobal m = 0\nfunc main() {\nentry:\n  %c = addrg @cv\n  %m = addrg @m\n  lock %m\n  %ok = wait %c, %m, 400\n  unlock %m\n  ret %ok\n}\n")
	f.Add("global ch = 2\nfunc main() {\nentry:\n  %p = addrg @ch\n  chsend %p, 7\n  %v = chrecv %p\n  chclose %p\n  ret %v\n}\n")
	f.Add("global ch = 1\nfunc main() {\nentry:\n  %p = addrg @ch\n  %ok = chsend %p, 7, 400\n  ret %ok\n}\n")
	f.Add("global n = 2\nfunc main() {\nentry:\n  %p = addrg @n\n  %old = cas %p, 2, 0\n  ret %old\n}\n")
	f.Add("wait %c")
	f.Add("func main() {\nentry:\n  cas $\n}\n")
	// Comment markers inside quoted text are text, not comments.
	f.Add("func main() {\nentry:\n  output \"a;b // c\", 1 ; note\n  assert 1, \"x\\\";y\" // note\n  ret 0\n}\n")
	f.Add("func main() {\nentry:\n  fail assert, \"end;\" !site 3\n}\n")

	f.Fuzz(func(t *testing.T, src string) {
		m, err := Parse(src)
		ref, refErr := refParse(src)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("Parse error %v, reference %v", err, refErr)
		}
		if err != nil {
			return // rejected input
		}
		if !reflect.DeepEqual(m, ref) {
			t.Fatalf("Parse and the reference parser build different modules")
		}
		text := Print(m)
		if want := refPrint(m); text != want {
			t.Fatalf("Print differs from the reference printer\ngot:\n%s\nwant:\n%s", text, want)
		}
		m2, err := Parse(text)
		if err != nil {
			t.Fatalf("printed module does not re-parse: %v\n%s", err, text)
		}
		if again := Print(m2); again != text {
			t.Fatalf("print is not a fixed point\nfirst:\n%s\nsecond:\n%s", text, again)
		}
	})
}
