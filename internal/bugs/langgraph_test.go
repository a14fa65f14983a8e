package bugs_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/sanitizer"
	"conair/internal/sched"
	"conair/internal/transform"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the corpus testdata models")

// The langgraph-go corpus ground truth: the racy global each buggy build
// fights over, and the post-join observable both builds must produce.
var corpusTruth = map[string]struct {
	global  string
	symptom mir.FailKind
	outText string
	outVal  mir.Word
}{
	"LGResults":    {"ctx_cancel", mir.FailHang, "cancelled", 1},
	"LGFrontier":   {"frontier", mir.FailAssert, "frontier", 7},
	"LGCompletion": {"wf_result", mir.FailAssert, "result", 42},
}

func corpusPCT(seed int64) interp.Config {
	return interp.Config{
		Sched: sched.NewSearchPCT(seed), MaxSteps: 20_000_000, CollectOutput: true,
	}
}

// TestCorpusModelsWellFormed pins the corpus registry and the checked-in
// MIR models: both build variants verify, the fix site resolves in each,
// and the forced (buggy) build prints byte-identically to the testdata
// model, which itself survives a parse/print round trip.
func TestCorpusModelsWellFormed(t *testing.T) {
	corpus := bugs.Corpus()
	wantOrder := []string{"LGResults", "LGFrontier", "LGCompletion"}
	if len(corpus) != len(wantOrder) {
		t.Fatalf("corpus has %d bugs, want %d", len(corpus), len(wantOrder))
	}
	for i, b := range corpus {
		if b.Name != wantOrder[i] {
			t.Fatalf("corpus[%d] = %s, want %s", i, b.Name, wantOrder[i])
		}
		if bugs.ByName(b.Name) != b {
			t.Fatalf("%s: ByName does not resolve the corpus entry", b.Name)
		}
		forced := b.Program(bugs.Config{ForceBug: true})
		clean := b.Program(bugs.Config{})
		for _, m := range []*mir.Module{forced, clean} {
			if err := mir.Verify(m); err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			if _, err := b.FixSite(m); err != nil {
				t.Fatalf("%s: fix site: %v", b.Name, err)
			}
		}

		path := filepath.Join("testdata", b.Name+".mir")
		text := mir.Print(forced)
		if *updateCorpus {
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("corpus model updated: %s", path)
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing corpus model (run with -update-corpus): %v", b.Name, err)
		}
		if string(want) != text {
			t.Errorf("%s: builder output drifted from checked-in model %s", b.Name, path)
		}
		parsed, err := mir.Parse(string(want))
		if err != nil {
			t.Fatalf("%s: checked-in model does not parse: %v", b.Name, err)
		}
		if err := mir.Verify(parsed); err != nil {
			t.Fatalf("%s: checked-in model does not verify: %v", b.Name, err)
		}
		if mir.Print(parsed) != string(want) {
			t.Errorf("%s: checked-in model is not print-stable", b.Name)
		}
	}
}

// TestCorpusManifestsAndCleanTwinSilent checks both halves of the
// buggy/fixed differential: the forced build fails with its documented
// symptom on some PCT schedule, and the fixed build completes on every
// schedule with the observable intact.
func TestCorpusManifestsAndCleanTwinSilent(t *testing.T) {
	for _, b := range bugs.Corpus() {
		truth := corpusTruth[b.Name]
		forced := b.Program(bugs.Config{ForceBug: true})
		found := false
		for seed := int64(0); seed < 200 && !found; seed++ {
			r := interp.RunModule(forced, corpusPCT(seed))
			if r.Failure != nil {
				if r.Failure.Kind != truth.symptom {
					t.Fatalf("%s: schedule %d failed with %v, want %v",
						b.Name, seed, r.Failure.Kind, truth.symptom)
				}
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no PCT schedule in 200 manifested the bug", b.Name)
		}

		clean := b.Program(bugs.Config{})
		for seed := int64(0); seed < 30; seed++ {
			r := interp.RunModule(clean, corpusPCT(seed))
			if !r.Completed {
				t.Fatalf("%s: fixed build failed on schedule %d: %v", b.Name, seed, r.Failure)
			}
			checkCorpusOutput(t, b.Name, "fixed", seed, r, truth.outText, truth.outVal)
		}
	}
}

// TestCorpusRecovers checks the survival-hardened buggy build completes
// on every schedule with the post-join observable unchanged — the corpus
// analog of the paper's 1000-run recovery experiment — under random and
// PCT schedules alike. Under PCT the retrying thread's rollback yields,
// so the racing writer runs.
func TestCorpusRecovers(t *testing.T) {
	for _, b := range bugs.Corpus() {
		truth := corpusTruth[b.Name]
		forced := b.Program(bugs.Config{ForceBug: true})
		h, err := core.Harden(forced, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: harden: %v", b.Name, err)
		}
		if err := transform.CheckInvariants(h.Module, h.Report.Analysis); err != nil {
			t.Fatalf("%s: invariants: %v", b.Name, err)
		}
		for seed := int64(0); seed < 30; seed++ {
			for _, cfg := range []interp.Config{
				{Sched: sched.NewRandom(seed), MaxSteps: 20_000_000, CollectOutput: true},
				corpusPCT(seed),
			} {
				r := interp.RunModule(h.Module, cfg)
				if !r.Completed {
					t.Fatalf("%s: hardened build did not recover on %s schedule %d: %v",
						b.Name, cfg.Sched.Name(), seed, r.Failure)
				}
				checkCorpusOutput(t, b.Name, "hardened", seed, r, truth.outText, truth.outVal)
			}
		}
	}
}

func checkCorpusOutput(t *testing.T, name, variant string, seed int64,
	r *interp.Result, text string, val mir.Word) {
	t.Helper()
	if len(r.Output) != 1 || r.Output[0].Text != text || r.Output[0].Value != val {
		t.Fatalf("%s: %s build observable changed on schedule %d: %+v, want %s=%d",
			name, variant, seed, r.Output, text, val)
	}
}

// TestCorpusSanitizerGroundTruth checks every sanitizer report on the
// buggy builds names the documented racy global (no false positives),
// and the fixed builds soak with zero reports. Assert-symptom bugs are
// searched through their survival-hardened build: the assert kills the
// raw run before the racing write, so only recovery lets both sides of
// the race execute in one trace.
func TestCorpusSanitizerGroundTruth(t *testing.T) {
	for _, b := range bugs.Corpus() {
		truth := corpusTruth[b.Name]
		mod := b.Program(bugs.Config{ForceBug: true})
		if b.Symptom != mir.FailHang {
			h, err := core.Harden(mod, core.DefaultOptions())
			if err != nil {
				t.Fatalf("%s: harden: %v", b.Name, err)
			}
			mod = h.Module
		}
		rs := sanSearch(t, mod, 10)
		if len(rs) == 0 {
			t.Errorf("%s: sanitizer found nothing in 10 schedules", b.Name)
			continue
		}
		for _, r := range rs {
			if r.Global != truth.global {
				t.Errorf("%s: report on %q, want race on %q", b.Name, r.Location(), truth.global)
			}
		}

		clean := b.Program(bugs.Config{})
		for seed := int64(0); seed < 10; seed++ {
			san := sanitizer.New(clean)
			cfg := corpusPCT(seed)
			cfg.Sanitizer = san
			if r := interp.RunModule(clean, cfg); !r.Completed {
				t.Fatalf("%s: fixed build failed on schedule %d: %v", b.Name, seed, r.Failure)
			}
			if rs := san.Reports(); len(rs) > 0 {
				t.Errorf("%s: fixed build false positive on schedule %d: %v", b.Name, seed, rs[0])
			}
		}
	}
}
