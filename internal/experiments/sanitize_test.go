package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mirgen"
	"conair/internal/replay"
	"conair/internal/runner"
	"conair/internal/sanitizer"
	"conair/internal/sched"
)

// TestCrossCheckAllTemplates is the tentpole oracle: for every injected
// bug template and several generator seeds, (1) the sanitizer flags the
// injected bug under some PCT schedule with no false positives, (2) the
// failure-free twin stays report-free, and (3) the survival-hardened
// program recovers with its observable output intact.
func TestCrossCheckAllTemplates(t *testing.T) {
	kinds := []mirgen.BugKind{mirgen.BugOrder, mirgen.BugAtomicity, mirgen.BugLockInversion,
		mirgen.BugLostSignal, mirgen.BugMissedBroadcast, mirgen.BugChannelDeadlock, mirgen.BugCASABA}
	for _, kind := range kinds {
		for _, genSeed := range []int64{1, 2, 13} {
			cfg := mirgen.Config{Seed: genSeed, Bug: kind}
			if err := CrossCheckTemplate(cfg, 25); err != nil {
				t.Errorf("seed %d: %v", genSeed, err)
			}
		}
	}
}

// TestSanitizeRunsRecordTheirSeed runs a cross-check leg under an engine
// whose run hook keeps every recording, then rebuilds each recorded run
// from its provenance alone: SchedName and Seed name the PCT schedule,
// and running the recorded program under it must reproduce the
// recording's fingerprint. A run that records seed 0 for another
// schedule fails here.
func TestSanitizeRunsRecordTheirSeed(t *testing.T) {
	var (
		mu   sync.Mutex
		recs []*replay.Recording
	)
	prev := eng
	SetEngine(runner.Engine{Workers: 1, FlightLimit: math.MaxInt, RunHook: func(ri runner.RunInfo) {
		mu.Lock()
		defer mu.Unlock()
		if ri.Recording != nil {
			recs = append(recs, ri.Recording)
		}
	}})
	defer SetEngine(prev)

	const budget = 6
	if err := CrossCheckTemplate(mirgen.Config{Seed: 1, Bug: mirgen.BugOrder}, budget); err != nil {
		t.Fatal(err)
	}
	seeds := map[int64]bool{}
	for _, rec := range recs {
		if rec.SchedName != "pct" {
			t.Fatalf("%s seed %d: scheduler %q, want pct", rec.Label, rec.Seed, rec.SchedName)
		}
		m, err := rec.Module()
		if err != nil {
			t.Fatal(err)
		}
		r := interp.RunModule(m, interp.Config{Sched: sched.NewSearchPCT(rec.Seed), MaxSteps: rec.MaxSteps})
		if got := replay.FingerprintOf(r); got != rec.Fingerprint {
			t.Errorf("%s seed %d: rebuilt run %+v, recorded %+v", rec.Label, rec.Seed, got, rec.Fingerprint)
		}
		seeds[rec.Seed] = true
	}
	if len(seeds) != budget {
		t.Errorf("%d recordings name seeds %v, want every seed below %d", len(recs), seeds, budget)
	}
}

// TestSanitizedGoldenSweepPassivity reruns the golden sweep's forced
// (light) variants with a sanitizer attached and checks the fingerprints
// against the same 140-entry snapshot the unsanitized sweep is pinned to:
// attaching the sanitizer must not perturb execution by a single step.
// (The full-workload clean variants are excluded only for test runtime;
// the hooks they execute are the same.)
func TestSanitizedGoldenSweepPassivity(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden snapshot missing: %v", err)
	}
	var want map[string]fingerprint
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	checked := 0
	for _, b := range bugs.All() {
		p := prep(b)
		for _, v := range []struct {
			name string
			h    *core.Hardened
		}{
			{"forced-fix", p.forcedFix},
			{"forced-surv", p.forcedSurv},
		} {
			for _, seed := range []int64{0, 1, 2, 7} {
				key := fmt.Sprintf("%s/%s/seed=%d", b.Name, v.name, seed)
				w, ok := want[key]
				if !ok {
					t.Fatalf("%s: missing from golden snapshot", key)
				}
				cfg := runner.SeedConfig(seed, expMaxSteps)
				cfg.Sanitizer = sanitizer.New(v.h.Module)
				got := fingerprintOf(interp.RunModule(v.h.Module, cfg))
				if !reflect.DeepEqual(got, w) {
					t.Errorf("%s: sanitized run drifted from golden\n got %+v\nwant %+v", key, got, w)
				}
				checked++
			}
		}
	}
	if checked != 80 {
		t.Fatalf("checked %d fingerprints, want 80", checked)
	}
}

// TestSanitizerMetricsRecorded checks the sanitizer counters flow into the
// experiment registry the -metrics flag exposes.
func TestSanitizerMetricsRecorded(t *testing.T) {
	mod := mirgen.Gen(mirgen.Config{Seed: 5, Threads: 2})
	before := Registry().Snapshot()
	san, r := SanitizeRun(mod, runner.SeedConfig(1, expMaxSteps))
	if r.Failure != nil {
		t.Fatalf("clean run failed: %v", r.Failure)
	}
	if len(san.Reports()) != 0 {
		t.Fatalf("clean run reported: %v", san.Reports())
	}
	after := Registry().Snapshot()
	if after["sanitizer_runs_total"] != before["sanitizer_runs_total"]+1 {
		t.Fatalf("sanitizer_runs_total not incremented: %v -> %v",
			before["sanitizer_runs_total"], after["sanitizer_runs_total"])
	}
	if after["sanitizer_accesses_total"] <= before["sanitizer_accesses_total"] {
		t.Fatal("sanitizer_accesses_total did not grow")
	}
	var buf strings.Builder
	if err := Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"sanitizer_runs_total", "sanitizer_reports_total",
		"sanitizer_races_total", "sanitizer_deadlocks_total",
		"sanitizer_accesses_total", "sanitizer_sync_ops_total",
	} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("metrics exposition missing %s", name)
		}
	}
}

// TestSanitizerVerdictsOnBenchmarks pins the Table 3 detection column:
// every race benchmark's verdict names its documented racy global, every
// deadlock benchmark's verdict names its documented lock pair.
func TestSanitizerVerdictsOnBenchmarks(t *testing.T) {
	want := map[string]string{
		"FFT":          "race(End)",
		"MySQL1":       "race(log_state)",
		"MySQL2":       "race(proc_info)",
		"Transmission": "race(gband)",
		"HTTrack":      "race(gopt)",
		"MozillaXP":    "race(mThd)",
		"ZSNES":        "race(video_init)",
		"HawkNL":       "deadlock(nlock,slock)",
		"MozillaJS":    "deadlock(gc_lock,rt_lock)",
		"SQLite":       "deadlock(db_lock,journal_lock)",
	}
	for _, b := range bugs.All() {
		w, ok := want[b.Name]
		if !ok {
			t.Errorf("%s: no expected verdict recorded in this test", b.Name)
			continue
		}
		got := SanitizerVerdict(b, 5)
		// The primary classification must match; extra reports on the same
		// program (e.g. a second racy pair in the same window) may append
		// a [+N] suffix.
		if got != w && !strings.HasPrefix(got, w+"[+") {
			t.Errorf("%s: verdict %q, want %q", b.Name, got, w)
		}
	}
}
