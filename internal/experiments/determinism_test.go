package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/runner"
)

// fingerprint condenses one interpreter Result into every field that must
// stay bit-for-bit stable across interpreter and engine changes. If any
// optimization perturbs scheduling, memory semantics, or recovery
// bookkeeping, at least one of these numbers moves.
type fingerprint struct {
	Completed      bool         `json:"completed"`
	FailKind       mir.FailKind `json:"failKind,omitempty"`
	FailSite       int          `json:"failSite,omitempty"`
	FailStep       int64        `json:"failStep,omitempty"`
	ExitCode       mir.Word     `json:"exitCode"`
	Steps          int64        `json:"steps"`
	Checkpoints    int64        `json:"checkpoints"`
	Rollbacks      int64        `json:"rollbacks"`
	CompFrees      int64        `json:"compFrees"`
	CompUnlocks    int64        `json:"compUnlocks"`
	Episodes       int          `json:"episodes"`
	EpisodeRetries int64        `json:"episodeRetries"`
	EpisodeSteps   int64        `json:"episodeSteps"`
	ThreadsSpawned int          `json:"threadsSpawned"`
}

func fingerprintOf(r *interp.Result) fingerprint {
	fp := fingerprint{
		Completed:      r.Completed,
		ExitCode:       r.ExitCode,
		Steps:          r.Stats.Steps,
		Checkpoints:    r.Stats.Checkpoints,
		Rollbacks:      r.Stats.Rollbacks,
		CompFrees:      r.Stats.CompFrees,
		CompUnlocks:    r.Stats.CompUnlocks,
		Episodes:       len(r.Stats.Episodes),
		ThreadsSpawned: r.Stats.ThreadsSpawned,
	}
	if r.Failure != nil {
		fp.FailKind = r.Failure.Kind
		fp.FailSite = r.Failure.Site
		fp.FailStep = r.Failure.Step
	}
	for _, e := range r.Stats.Episodes {
		fp.EpisodeRetries += e.Retries
		if e.Recovered {
			// Unrecovered episodes have Duration() == -1; they contributed
			// 0 to the historical sum, so skip them to keep the golden
			// fingerprints byte-stable.
			fp.EpisodeSteps += e.Duration()
		}
	}
	return fp
}

// goldenSweep runs every bug in every evaluated configuration under fixed
// seeds and returns the fingerprints keyed "app/variant/seed=N". cfg
// builds the per-seed interpreter config; the default sweep uses runner.SeedConfig,
// and the tracing guard test swaps in a Sink-carrying variant.
//
// Forced (light) variants exercise recovery — rollback, compensation,
// episodes; clean full-workload variants exercise the memory and
// scheduler hot paths at volume.
func goldenSweep(cfg func(seed int64) interp.Config) map[string]fingerprint {
	out := map[string]fingerprint{}
	for _, b := range bugs.All() {
		forced := b.Program(bugs.Config{Light: true, ForceBug: true})
		fPos, err := b.FixSite(forced)
		if err != nil {
			panic(err)
		}
		clean := b.Program(bugs.Config{})
		cPos, err := b.FixSite(clean)
		if err != nil {
			panic(err)
		}
		variants := []struct {
			name  string
			m     *mir.Module
			seeds []int64
		}{
			{"forced-fix", mustHarden(forced, core.FixOptions(fPos)).Module, []int64{0, 1, 2, 7}},
			{"forced-surv", mustHarden(forced, core.DefaultOptions()).Module, []int64{0, 1, 2, 7}},
			{"clean-orig", clean, []int64{1, 2}},
			{"clean-fix", mustHarden(clean, core.FixOptions(cPos)).Module, []int64{1, 2}},
			{"clean-surv", mustHarden(clean, core.DefaultOptions()).Module, []int64{1, 2}},
		}
		for _, v := range variants {
			for _, seed := range v.seeds {
				key := fmt.Sprintf("%s/%s/seed=%d", b.Name, v.name, seed)
				out[key] = fingerprintOf(interp.RunModule(v.m, cfg(seed)))
			}
		}
	}
	return out
}

const goldenPath = "testdata/determinism.json"

// TestInterpreterResultsMatchGolden pins the full internal/bugs suite's
// Results against a snapshot recorded before the interpreter hot-path
// optimizations (memory block cache, incremental runnable set, frame
// pooling) landed. Regenerate deliberately with:
//
//	CONAIR_REGEN=1 go test ./internal/experiments -run Golden
func TestInterpreterResultsMatchGolden(t *testing.T) {
	got := goldenSweep(func(seed int64) interp.Config { return runner.SeedConfig(seed, expMaxSteps) })

	if os.Getenv("CONAIR_REGEN") != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s with %d fingerprints", goldenPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden snapshot missing (run with CONAIR_REGEN=1 to create): %v", err)
	}
	var want map[string]fingerprint
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("fingerprint count = %d, golden has %d", len(got), len(want))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: missing from sweep", key)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: result drifted\n got %+v\nwant %+v", key, g, w)
		}
	}
}
