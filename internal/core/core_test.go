package core

import (
	"strings"
	"testing"

	"conair/internal/analysis"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/sched"
)

const racy = `
global flag = 0
func reader() {
entry:
  %v = loadg @flag
  assert %v, "too early"
  ret
}
func main() {
entry:
  %t = spawn reader()
  sleep 150
  storeg @flag, 1
  join %t
  ret 0
}
`

func TestHardenSurvivalPipeline(t *testing.T) {
	m := mir.MustParse(racy)
	h, err := Harden(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := h.Report
	if rep.Mode != analysis.Survival {
		t.Errorf("mode = %v", rep.Mode)
	}
	if rep.Census.Assert != 1 || rep.StaticReexecPoints != 1 {
		t.Errorf("report = %+v", rep)
	}
	if rep.RecoverySites != 1 {
		t.Errorf("recovery sites = %d", rep.RecoverySites)
	}
	if rep.AnalysisTime <= 0 || rep.TransformTime <= 0 {
		t.Errorf("times not recorded: %+v", rep)
	}
	if rep.Analysis == nil || len(rep.Analysis.Sites) != 1 {
		t.Errorf("analysis drill-down missing")
	}
	r := interp.RunModule(h.Module, interp.Config{Sched: sched.NewRandom(1)})
	if !r.Completed {
		t.Fatalf("hardened run failed: %v", r.Failure)
	}
}

func TestHardenFixPipeline(t *testing.T) {
	m := mir.MustParse(racy)
	pos, err := analysis.FindSite(m, "reader", mir.OpAssert, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Harden(m, FixOptions(pos))
	if err != nil {
		t.Fatal(err)
	}
	if h.Report.Mode != analysis.Fix || h.Report.Census.Total() != 1 {
		t.Errorf("report = %+v", h.Report)
	}
}

func TestHardenRejectsInvalidModule(t *testing.T) {
	m := mir.MustParse(racy)
	m.Functions[0].Blocks[0].Instrs[0].Aux = 99
	if _, err := Harden(m, DefaultOptions()); err == nil {
		t.Fatal("invalid module must be rejected")
	}
}

func TestHardenRejectsBadFixSite(t *testing.T) {
	m := mir.MustParse(racy)
	if _, err := Harden(m, FixOptions(mir.Pos{Fn: 99})); err == nil {
		t.Fatal("bad fix site must be rejected")
	}
}

func TestHardenLeavesInputUntouched(t *testing.T) {
	m := mir.MustParse(racy)
	before := mir.Print(m)
	if _, err := Harden(m, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if mir.Print(m) != before {
		t.Fatal("Harden mutated the input module")
	}
}

func TestDeadlockPointClassification(t *testing.T) {
	m := mir.MustParse(`
global L0 = 0
global L = 0
global g = 1
func main() {
entry:
  %a = loadg @g
  assert %a, "a"
  %p0 = addrg @L0
  lock %p0
  %p = addrg @L
  lock %p
  unlock %p
  unlock %p0
  ret
}`)
	h, err := Harden(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if h.Report.StaticDeadlockPoints == 0 {
		t.Error("expected a deadlock-serving checkpoint")
	}
	if h.Report.StaticNonDeadlockPoints == 0 {
		t.Error("expected a non-deadlock-serving checkpoint")
	}
	if h.Report.PrunedSites == 0 {
		t.Error("the outer lock should have been pruned")
	}
	text := mir.Print(h.Module)
	if !strings.Contains(text, "timedlock") {
		t.Error("kept deadlock site should use a timed lock")
	}
}
