package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"conair/internal/analysis"
	"conair/internal/bugs"
	"conair/internal/mir"
	"conair/internal/mirgen"
	"conair/internal/transform"
)

// diffInput is one module with the analysis options it is checked under.
type diffInput struct {
	name string
	m    *mir.Module
	opts analysis.Options
}

// namedOptions is one analysis configuration of the differential sweep.
type namedOptions struct {
	name string
	opts analysis.Options
}

// optionSets are the configurations the differential tests sweep: the
// paper's default and one departure from it per option. GuardOutputs (a
// survival-mode pre-pass of the pipeline) is applied to the module by
// diffInputs.
func optionSets() []namedOptions {
	def := analysis.DefaultOptions()
	intra, noopt, basic, safe := def, def, def, def
	intra.Interproc = false
	noopt.Optimize = false
	basic.Policy = mir.PolicyBasic
	safe.PruneSafeSites = true
	return []namedOptions{{"default", def}, {"intra", intra}, {"noopt", noopt}, {"basic", basic}, {"safesites", safe}}
}

// diffInputs lists the differential inputs: the 13 bug programs, light
// and forced as well as full, in survival mode and in fix mode at their
// FixSite, the 8 mirgen templates at 3 size classes and 0-2 worker
// threads, and testdata/loops.mir in survival mode, each under every
// option set and, in survival mode, with GuardOutputs.
func diffInputs(t *testing.T) []diffInput {
	var out []diffInput
	add := func(name string, m *mir.Module, fix *mir.Pos) {
		for _, set := range optionSets() {
			opts := set.opts
			if fix != nil {
				opts.Mode, opts.FixSite = analysis.Fix, *fix
			}
			out = append(out, diffInput{name + "/" + set.name, m, opts})
		}
		if fix == nil {
			out = append(out, diffInput{name + "/guarded", transform.GuardOutputs(m), analysis.DefaultOptions()})
		}
	}
	for _, bug := range append(bugs.All(), bugs.Corpus()...) {
		for _, c := range []struct {
			name string
			cfg  bugs.Config
		}{{"light-forced", bugs.Config{Light: true, ForceBug: true}}, {"full", bugs.Config{}}} {
			m := bug.Program(c.cfg)
			name := bug.Name + "/" + c.name
			add(name+"/survival", m, nil)
			pos, err := bug.FixSite(m)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			add(name+"/fix", m, &pos)
		}
	}
	seed := int64(1)
	for kind := mirgen.BugNone; kind <= mirgen.BugCASABA; kind++ {
		for _, size := range []struct{ funcs, stmts int }{{2, 8}, {4, 16}, {8, 32}} {
			for threads := 0; threads <= 2; threads++ {
				seed++
				m := mirgen.Gen(mirgen.Config{Seed: seed, Funcs: size.funcs, StmtsPerFunc: size.stmts, Threads: threads, Bug: kind})
				add(fmt.Sprintf("%v/f%d/t%d", kind, size.funcs, threads), m, nil)
			}
		}
	}
	add("loops", loadLoops(t), nil)
	return out
}

// loadLoops parses testdata/loops.mir.
func loadLoops(t testing.TB) *mir.Module {
	src, err := os.ReadFile(filepath.Join("testdata", "loops.mir"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := mir.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkAgainstReference analyzes m with Analyze and with the reference
// analysis and fails unless both give the same error or deeply equal
// results (Duration aside), and the result hardens to a valid module.
func checkAgainstReference(t *testing.T, name string, m *mir.Module, opts analysis.Options) {
	t.Helper()
	got, err := analysis.Analyze(m, opts)
	want, refErr := analysis.RefAnalyze(m, opts)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("%s: Analyze error %v, reference %v", name, err, refErr)
	}
	if err != nil {
		return
	}
	got.Duration = 0
	if !reflect.DeepEqual(got, want) {
		for i := range got.Sites {
			if i < len(want.Sites) && !reflect.DeepEqual(got.Sites[i], want.Sites[i]) {
				t.Fatalf("%s: site %d differs\ngot  %+v\nwant %+v", name, i, got.Sites[i], want.Sites[i])
			}
		}
		t.Fatalf("%s: results differ\ngot  %+v\nwant %+v", name, got, want)
	}
	// Equal results harden alike; TestApplyMatchesReference and
	// FuzzApplyReference hold the rewrite to its own reference.
	if err := mir.Verify(transform.Apply(m, got, transform.Options{})); err != nil {
		t.Fatalf("%s: hardened module invalid: %v", name, err)
	}
}

// TestAnalyzeMatchesReference pins the per-function analysis context to
// the per-site reference analysis it replaced: every Region, Slice,
// point list, verdict, checkpoint and count must be identical.
// TestApplyMatchesReference pins the rewrite the same way.
func TestAnalyzeMatchesReference(t *testing.T) {
	inputs := diffInputs(t)
	for _, in := range inputs {
		checkAgainstReference(t, in.name, in.m, in.opts)
	}
	t.Logf("%d analyses match the reference", len(inputs))
}

// FuzzAnalyzeReference checks that, on any MIR program that parses and
// verifies, Analyze and the reference analysis agree, neither panics and
// the result hardens to a valid module: in survival mode under the
// default and the basic region policy, and in fix mode at the program's
// first failure site. Seeded from the checked-in testdata programs,
// testdata/loops.mir and a few mirgen prints.
func FuzzAnalyzeReference(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mir"))
	if err != nil {
		f.Fatal(err)
	}
	for _, fn := range append(files, filepath.Join("testdata", "loops.mir")) {
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
		opts := analysis.DefaultOptions()
		checkAgainstReference(t, "default", m, opts)
		opts.Policy = mir.PolicyBasic
		checkAgainstReference(t, "basic", m, opts)
		if sites := analysis.IdentifySurvival(m); len(sites) > 0 {
			opts = analysis.DefaultOptions()
			opts.Mode, opts.FixSite = analysis.Fix, sites[0].Pos
			checkAgainstReference(t, "fix", m, opts)
		}
	})
}
