package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/mirgen"
	"conair/internal/obs/obstest"
	"conair/internal/replay"
	"conair/internal/sanitizer"
	"conair/internal/sanitizer/sanitizertest"
)

// SanitizeSearchRef is the test-only oracle for SanitizeSearch: the same
// seed walk with a fresh Reference detector per seed and no engine.
// TestSanitizeSearchMatchesSequentialRef pins SanitizeSearch's
// (seed, reports) pair against it.
func SanitizeSearchRef(mod *mir.Module, budget, maxSteps int64) (int64, []sanitizer.Report) {
	for seed := int64(0); seed < budget; seed++ {
		san := sanitizertest.NewReference(mod)
		cfg := pctCfg(seed, maxSteps)
		cfg.Sanitizer = san
		interp.RunModule(mod, cfg)
		if rs := san.Reports(); len(rs) > 0 {
			return seed, rs
		}
	}
	return -1, nil
}

// The differential sweep pins the epoch Sanitizer against the Reference
// detector: same module, same PCT schedule, two sanitized runs — the run
// results must match bit-for-bit (passivity: neither detector perturbs
// execution) and the report lists, truncation and access/sync counters
// must be identical. The fast sanitizer is a single instance recycled
// with Reset across every program in the sweep, so the sweep also pins
// Reset's state clearing: any residue from a previous program would show
// up as a report difference.

// sanDiffKinds is every mirgen bug template kind.
var sanDiffKinds = []mirgen.BugKind{
	mirgen.BugOrder, mirgen.BugAtomicity, mirgen.BugLockInversion,
	mirgen.BugLostSignal, mirgen.BugMissedBroadcast,
	mirgen.BugChannelDeadlock, mirgen.BugCASABA,
}

// sameReports compares report lists element-wise (nil and empty agree:
// the recycled fast sanitizer holds a zero-length list with capacity
// where a fresh Reference holds nil).
func sameReports(a, b []sanitizer.Report) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// diffSanitize runs mod under the PCT schedule for each seed with both
// detectors attached and fails on any divergence. fast is reused via
// Reset.
func diffSanitize(t *testing.T, fast *sanitizer.Sanitizer, name string, mod *mir.Module, seeds []int64, maxSteps int64) {
	t.Helper()
	for _, seed := range seeds {
		fast.Reset(mod)
		cfgA := pctCfg(seed, maxSteps)
		cfgA.Sanitizer = fast
		rA := interp.RunModule(mod, cfgA)

		ref := sanitizertest.NewReference(mod)
		cfgB := pctCfg(seed, maxSteps)
		cfgB.Sanitizer = ref
		rB := interp.RunModule(mod, cfgB)

		if !reflect.DeepEqual(rA, rB) {
			t.Fatalf("%s seed %d: sanitized runs diverged between detectors (passivity violated)\nepoch: %+v\nref:   %+v",
				name, seed, rA, rB)
		}
		if !sameReports(fast.Reports(), ref.Reports()) {
			t.Fatalf("%s seed %d: reports differ\nepoch: %v\nref:   %v",
				name, seed, fast.Reports(), ref.Reports())
		}
		if fast.Truncated() != ref.Truncated() {
			t.Fatalf("%s seed %d: truncated %d, ref %d", name, seed, fast.Truncated(), ref.Truncated())
		}
		if fast.Accesses() != ref.Accesses() || fast.SyncOps() != ref.SyncOps() {
			t.Fatalf("%s seed %d: counters differ: accesses %d/%d, syncOps %d/%d",
				name, seed, fast.Accesses(), ref.Accesses(), fast.SyncOps(), ref.SyncOps())
		}
	}
}

// TestSanitizerDifferentialTestdata sweeps every checked-in .mir program —
// raw and hardened — under both detectors.
func TestSanitizerDifferentialTestdata(t *testing.T) {
	var files []string
	for _, pattern := range []string{"../../testdata/*.mir", "../bugs/testdata/*.mir"} {
		fs, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, fs...)
	}
	if len(files) == 0 {
		t.Fatal("no testdata programs found")
	}
	fast := sanitizer.New(nil)
	seeds := []int64{0, 1, 7}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := mir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		name := filepath.Base(path)
		diffSanitize(t, fast, name, m, seeds, 2_000_000)

		h, err := core.Harden(m, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: harden: %v", path, err)
		}
		diffSanitize(t, fast, name+"+hardened", h.Module, seeds, 2_000_000)
	}
}

// TestSanitizerDifferentialCorpus sweeps the paper benchmarks and the
// real-bug corpus: the forced buggy build, its survival hardening, and the
// failure-free twin.
func TestSanitizerDifferentialCorpus(t *testing.T) {
	fast := sanitizer.New(nil)
	seeds := []int64{0, 1}
	all := append(append([]*bugs.Bug(nil), bugs.All()...), bugs.Corpus()...)
	for _, b := range all {
		p := prep(b)
		diffSanitize(t, fast, b.Name+"/forced", p.forced, seeds, expMaxSteps)
		diffSanitize(t, fast, b.Name+"/forced-surv", p.forcedSurv.Module, seeds, expMaxSteps)
		diffSanitize(t, fast, b.Name+"/light-clean", p.lightClean, seeds, expMaxSteps)
	}
}

// TestSanitizerDifferentialMirgen sweeps 50 generator seeds per bug
// template kind (hardened legs on a subset: Harden dominates runtime).
func TestSanitizerDifferentialMirgen(t *testing.T) {
	fast := sanitizer.New(nil)
	seeds := []int64{0, 1}
	for _, kind := range sanDiffKinds {
		for genSeed := int64(0); genSeed < 50; genSeed++ {
			cfg := mirgen.Config{Seed: genSeed, Threads: int(genSeed % 4), Bug: kind}
			m := mirgen.Gen(cfg)
			name := kind.String()
			diffSanitize(t, fast, name, m, seeds, 2_000_000)

			if genSeed%10 == 0 {
				h, err := core.Harden(m, core.DefaultOptions())
				if err != nil {
					t.Fatalf("%s seed %d: harden: %v", name, genSeed, err)
				}
				diffSanitize(t, fast, name+"+hardened", h.Module, seeds, 2_000_000)
			}
		}
	}
}

// TestSanitizeSearchMatchesSequentialRef pins the production search,
// pooled epoch sanitizer through the engine's job path, against the
// Reference-detector walk: on a 4-worker engine SanitizeSearch must return
// the same (seed, reports) pair for every benchmark, every corpus model
// and every template kind.
func TestSanitizeSearchMatchesSequentialRef(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)

	check := func(name string, mod *mir.Module, maxSteps int64) {
		t.Helper()
		gotSeed, gotReports := SanitizeSearch(mod, sanitizeBudget, maxSteps)
		wantSeed, wantReports := SanitizeSearchRef(mod, sanitizeBudget, maxSteps)
		if gotSeed != wantSeed {
			t.Errorf("%s: search hit seed %d, reference %d", name, gotSeed, wantSeed)
			return
		}
		if !sameReports(gotReports, wantReports) {
			t.Errorf("%s: winning reports differ at seed %d\nsearch:    %v\nreference: %v",
				name, gotSeed, gotReports, wantReports)
		}
	}

	all := append(append([]*bugs.Bug(nil), bugs.All()...), bugs.Corpus()...)
	for _, b := range all {
		p := prep(b)
		mod := p.forcedSurv.Module
		if b.Symptom == mir.FailHang {
			mod = p.forced
		}
		check(b.Name, mod, expMaxSteps)
	}
	for _, kind := range sanDiffKinds {
		mod := mirgen.Gen(mirgen.Config{Seed: 2, Bug: kind})
		check(kind.String(), mod, 20_000_000)
	}
}

// TestSanitizeSearchMetricsExposition checks the new performance counters
// flow through the experiment registry into a valid Prometheus text
// exposition.
func TestSanitizeSearchMetricsExposition(t *testing.T) {
	b := bugs.All()[0]
	p := prep(b)
	if seed, _ := SanitizeSearch(p.forcedSurv.Module, sanitizeBudget, expMaxSteps); seed < 0 {
		t.Fatalf("%s: search found nothing", b.Name)
	}
	snap := Registry().Snapshot()
	if snap["sanitizer_fastpath_hits_total"] <= 0 {
		t.Error("sanitizer_fastpath_hits_total did not grow")
	}
	if snap["sanitizer_vc_joins_total"] <= 0 {
		t.Error("sanitizer_vc_joins_total did not grow")
	}
	var buf strings.Builder
	if err := Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"sanitizer_fastpath_hits_total",
		"sanitizer_vc_joins_total",
	} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("metrics exposition missing %s", name)
		}
	}
	if err := obstest.ValidateExposition([]byte(buf.String())); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
}

// BenchmarkSanitizeSearch measures a full no-hit seed sweep (the search's
// worst case: every seed in the budget runs to completion) on a
// benchmark's failure-free light build. The epoch leg is the production
// path — one pooled sanitizer reset per seed; the reference leg walks the
// same seeds through the same engine job path with a fresh map-based
// detector per seed. Both legs pay the same interpreter and engine costs,
// so the delta is the detector.
func BenchmarkSanitizeSearch(b *testing.B) {
	mod := prep(bugs.All()[0]).lightClean
	const budget, maxSteps = 5, 20_000_000
	b.Run("epoch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if seed, _ := SanitizeSearch(mod, budget, maxSteps); seed != -1 {
				b.Fatalf("unexpected hit at seed %d", seed)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for seed := int64(0); seed < budget; seed++ {
				san := sanitizertest.NewReference(mod)
				cfg := pctCfg(seed, maxSteps)
				cfg.Sanitizer = san
				eng.RunJob(mod, cfg, replay.Meta{Label: mod.Name + "-sanitize", Seed: seed})
				if len(san.Reports()) > 0 {
					b.Fatalf("unexpected hit at seed %d", seed)
				}
			}
		}
	})
	// plain is the floor: the identical sweep with no sanitizer attached.
	// epoch-vs-plain is the residual detection overhead the tentpole is
	// chasing; reference-vs-plain is what it used to cost.
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for seed := int64(0); seed < budget; seed++ {
				eng.RunJob(mod, pctCfg(seed, maxSteps),
					replay.Meta{Label: mod.Name + "-plain", Seed: seed})
			}
		}
	})
}
