package mir_test

import (
	"sync"
	"testing"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/mir"
	"conair/internal/mirgen"
)

// benchModules returns MySQL2's light forced build and its survival-mode
// hardening, the largest texts the harden pipeline handles (1.2 MB and
// 4.5 MB printed).
var benchModules = sync.OnceValues(func() ([]string, []*mir.Module) {
	light := bugs.ByName("MySQL2").Program(bugs.Config{Light: true, ForceBug: true})
	h, err := core.Harden(light, core.DefaultOptions())
	if err != nil {
		panic(err)
	}
	return []string{"MySQL2-light", "MySQL2-hardened"}, []*mir.Module{light, h.Module}
})

var (
	sinkText string
	sinkMod  *mir.Module
)

// BenchmarkPrint times Print against the reference printer it replaced.
func BenchmarkPrint(b *testing.B) {
	names, mods := benchModules()
	for i, m := range mods {
		for _, impl := range []struct {
			name  string
			print func(*mir.Module) string
		}{{"impl=append", mir.Print}, {"impl=ref", mir.RefPrint}} {
			b.Run(names[i]+"/"+impl.name, func(b *testing.B) {
				b.SetBytes(int64(len(mir.Print(m))))
				b.ReportAllocs()
				for b.Loop() {
					sinkText = impl.print(m)
				}
			})
		}
	}
}

// BenchmarkParse times Parse against the reference parser it replaced.
func BenchmarkParse(b *testing.B) {
	names, mods := benchModules()
	for i, m := range mods {
		text := mir.Print(m)
		for _, impl := range []struct {
			name  string
			parse func(string) (*mir.Module, error)
		}{{"impl=scan", mir.Parse}, {"impl=ref", mir.RefParse}} {
			b.Run(names[i]+"/"+impl.name, func(b *testing.B) {
				b.SetBytes(int64(len(text)))
				b.ReportAllocs()
				for b.Loop() {
					m, err := impl.parse(text)
					if err != nil {
						b.Fatal(err)
					}
					sinkMod = m
				}
			})
		}
	}
}

// TestPrintAllocsConstant pins Print to a constant number of allocations
// per module, however many instructions it prints: the builder presized
// from printSize, which must not need to regrow.
func TestPrintAllocsConstant(t *testing.T) {
	names, mods := benchModules()
	names = append(names, "mirgen-small")
	mods = append(mods, mirgen.Gen(mirgen.Config{Seed: 1, Funcs: 2, StmtsPerFunc: 8}))
	for i, m := range mods {
		if n := testing.AllocsPerRun(3, func() { sinkText = mir.Print(m) }); n > 1 {
			t.Errorf("%s: Print made %v allocations per call, want 1", names[i], n)
		}
	}
}
