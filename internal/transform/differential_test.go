package transform_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"conair/internal/analysis"
	"conair/internal/bugs"
	"conair/internal/mir"
	"conair/internal/mirgen"
	"conair/internal/transform"
)

// checkApply hardens m under opts with Apply and with the reference
// rewrite and fails unless both print the same module.
func checkApply(t *testing.T, name string, m *mir.Module, opts analysis.Options) {
	t.Helper()
	res, err := analysis.Analyze(m, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got := mir.Print(transform.Apply(m, res, transform.Options{}))
	if want := mir.Print(transform.RefApply(m, res, transform.Options{})); got != want {
		t.Fatalf("%s: hardened modules differ\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// applyOptions are the analysis configurations the rewrite is checked
// under: the paper's default and one departure per option that changes
// which sites recover or where their points go.
func applyOptions() []analysis.Options {
	def := analysis.DefaultOptions()
	intra, noopt, basic, safe := def, def, def, def
	intra.Interproc = false
	noopt.Optimize = false
	basic.Policy = mir.PolicyBasic
	safe.PruneSafeSites = true
	return []analysis.Options{def, intra, noopt, basic, safe}
}

// TestApplyMatchesReference pins the map-free rewrite to the reference
// rewrite it replaced on the inputs of analysis's
// TestAnalyzeMatchesReference, which pins the analysis results: the 13
// bug programs, light and forced as well as full, in survival mode (also
// with GuardOutputs) and in fix mode at their FixSite, the 8 mirgen
// templates at 3 size classes and 0-2 worker threads, and loops.mir.
func TestApplyMatchesReference(t *testing.T) {
	check := func(name string, m *mir.Module, fix *mir.Pos) {
		for i, opts := range applyOptions() {
			if fix != nil {
				opts.Mode, opts.FixSite = analysis.Fix, *fix
			}
			checkApply(t, fmt.Sprintf("%s/opts%d", name, i), m, opts)
		}
		if fix == nil {
			checkApply(t, name+"/guarded", transform.GuardOutputs(m), analysis.DefaultOptions())
		}
	}
	for _, bug := range append(bugs.All(), bugs.Corpus()...) {
		for _, cfg := range []bugs.Config{{Light: true, ForceBug: true}, {}} {
			m := bug.Program(cfg)
			name := fmt.Sprintf("%s/%+v", bug.Name, cfg)
			check(name+"/survival", m, nil)
			pos, err := bug.FixSite(m)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			check(name+"/fix", m, &pos)
		}
	}
	seed := int64(1)
	for kind := mirgen.BugNone; kind <= mirgen.BugCASABA; kind++ {
		for _, size := range []struct{ funcs, stmts int }{{2, 8}, {4, 16}, {8, 32}} {
			for threads := 0; threads <= 2; threads++ {
				seed++
				m := mirgen.Gen(mirgen.Config{Seed: seed, Funcs: size.funcs, StmtsPerFunc: size.stmts, Threads: threads, Bug: kind})
				check(fmt.Sprintf("%v/f%d/t%d", kind, size.funcs, threads), m, nil)
			}
		}
	}
	src, err := os.ReadFile(loopsMIR)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mir.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	check("loops", m, nil)
}

// loopsMIR holds the loop, lock, call and unreachable-block shapes the
// generated programs and bug models lack.
var loopsMIR = filepath.Join("..", "analysis", "testdata", "loops.mir")

// FuzzApplyReference checks that, on any MIR program that parses and
// verifies, Apply and the reference rewrite print the same hardened
// module under each analysis configuration, without panicking. Seeded
// from the checked-in testdata programs, loops.mir and a few mirgen
// prints.
func FuzzApplyReference(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mir"))
	if err != nil {
		f.Fatal(err)
	}
	for _, fn := range append(files, loopsMIR) {
		src, err := os.ReadFile(fn)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for kind := mirgen.BugNone; kind <= mirgen.BugCASABA; kind += 3 {
		f.Add(mir.Print(mirgen.Gen(mirgen.Config{Seed: int64(kind), Funcs: 2, StmtsPerFunc: 8, Threads: 1, Bug: kind})))
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := mir.Parse(src)
		if err != nil || mir.Verify(m) != nil {
			return
		}
		for _, opts := range applyOptions() {
			checkApply(t, "", m, opts)
		}
	})
}
