package bugs_test

import (
	"testing"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/sanitizer"
	"conair/internal/sched"
)

// Ground truth for the sanitizer on the ten paper benchmarks: the racy
// global each race bug fights over, and the inverted lock pair behind
// each deadlock bug (Symptom == FailHang), as documented in each bug's
// builder.
var racyGlobal = map[string]string{
	"FFT":          "End",
	"MySQL1":       "log_state",
	"MySQL2":       "proc_info",
	"Transmission": "gband",
	"HTTrack":      "gopt",
	"MozillaXP":    "mThd",
	"ZSNES":        "video_init",
}

var lockPair = map[string][2]string{
	"HawkNL":    {"nlock", "slock"},
	"MozillaJS": {"gc_lock", "rt_lock"},
	"SQLite":    {"db_lock", "journal_lock"},
}

// sanSearch runs mod under PCT schedule seeds until the sanitizer
// reports something, returning the first non-empty report set.
func sanSearch(t *testing.T, mod *mir.Module, budget int64) []sanitizer.Report {
	t.Helper()
	for seed := int64(0); seed < budget; seed++ {
		san := sanitizer.New(mod)
		interp.RunModule(mod, interp.Config{
			Sched:     sched.NewSearchPCT(seed),
			MaxSteps:  200_000_000,
			Sanitizer: san,
		})
		if rs := san.Reports(); len(rs) > 0 {
			return rs
		}
	}
	return nil
}

// TestSanitizerClassifiesAllBenchmarks checks the sanitizer's verdict on
// every paper bug: race bugs are flagged as races on their documented
// racy global, deadlock bugs are flagged by the lockset predictor on
// their documented lock pair — and nothing else is reported.
//
// Race bugs are observed on the survival-hardened forced program: an
// order-violation run dies after the premature read and before the late
// write, so only recovery lets both sides of the race appear in one
// trace. Deadlock bugs are predicted on the unhardened forced program,
// since hardening's timed inner locks neutralize the inversion — which
// the predictor correctly treats as not-a-deadlock.
func TestSanitizerClassifiesAllBenchmarks(t *testing.T) {
	for _, b := range bugs.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			forced := b.Program(bugs.Config{Light: true, ForceBug: true})

			if pair, ok := lockPair[b.Name]; ok {
				if b.Symptom != mir.FailHang {
					t.Fatalf("deadlock bug has symptom %v, want %v", b.Symptom, mir.FailHang)
				}
				rs := sanSearch(t, forced, 5)
				if len(rs) == 0 {
					t.Fatal("no sanitizer report on forced deadlock program")
				}
				for _, r := range rs {
					if r.Kind != sanitizer.KindDeadlock {
						t.Fatalf("unexpected %v report: %v", r.Kind, r)
					}
					got := map[string]bool{r.LockA: true, r.LockB: true}
					if !got[pair[0]] || !got[pair[1]] {
						t.Fatalf("deadlock on (%s,%s), want (%s,%s)",
							r.LockA, r.LockB, pair[0], pair[1])
					}
				}
				return
			}

			global, ok := racyGlobal[b.Name]
			if !ok {
				t.Fatalf("benchmark missing from this test's ground truth")
			}
			h, err := core.Harden(forced, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			rs := sanSearch(t, h.Module, 5)
			if len(rs) == 0 {
				t.Fatal("no sanitizer report on hardened forced race program")
			}
			// Pointer-publication bugs (HTTrack, MozillaXP) race on the
			// pointer global and on the heap block it publishes — both
			// sides of the same order violation — so heap reports are
			// legitimate companions; the documented global must appear.
			sawGlobal := false
			for _, r := range rs {
				if r.Kind == sanitizer.KindDeadlock {
					t.Fatalf("race bug misclassified as deadlock: %v", r)
				}
				switch {
				case r.Global == global:
					sawGlobal = true
				case r.Global == "":
					// heap block race: companion report
				default:
					t.Fatalf("race on %q, want %q (report: %v)", r.Location(), global, r)
				}
			}
			if !sawGlobal {
				t.Fatalf("no race on documented global %q; got %v", global, rs)
			}
		})
	}
}

// TestSanitizerCleanOnFailureFreeVariants pins the false-positive rate on
// the benchmarks themselves: the non-forced variants run with the bug's
// window closed, and the sanitizer must stay quiet on the deadlock bugs'
// clean variants, whose lock acquisitions are ordered by timing. (Race
// bugs' clean variants still contain the racy pair — timing hides the
// failure, not the race — so a report there is correct, not a false
// positive; they are exercised by the zero-FP mirgen soak instead.)
func TestSanitizerCleanOnFailureFreeVariants(t *testing.T) {
	for _, b := range bugs.All() {
		if _, ok := lockPair[b.Name]; !ok {
			continue
		}
		b := b
		t.Run(b.Name, func(t *testing.T) {
			clean := b.Program(bugs.Config{Light: true})
			san := sanitizer.New(clean)
			r := interp.RunModule(clean, interp.Config{
				Sched:     sched.NewRandom(1),
				MaxSteps:  200_000_000,
				Sanitizer: san,
			})
			if !r.Completed {
				t.Fatalf("clean variant failed: %v", r.Failure)
			}
			for _, rep := range san.Reports() {
				if rep.Kind == sanitizer.KindDeadlock {
					t.Fatalf("false deadlock prediction on clean variant: %v", rep)
				}
			}
		})
	}
}
