package experiments

import (
	"encoding/json"
	"os"
	"testing"

	"conair/internal/interp"
	"conair/internal/runner"
	"conair/internal/sched"
)

// TestFlightRecorderDoesNotPerturbExecution is the passivity guard for
// the always-on flight recorder: the full golden sweep (every bug, every
// hardening variant, every pinned seed — the 140-entry set in testdata)
// must produce bit-identical fingerprints with every run's scheduler
// wrapped in a bounded flight recorder. The bound here is deliberately
// tiny, so long runs outgrow it early — truncation must be exactly as
// passive as recording. Any draw the wrapper consumes, any decision it reorders,
// moves at least one fingerprint.
func TestFlightRecorderDoesNotPerturbExecution(t *testing.T) {
	if testing.Short() {
		t.Skip("full flight-recorded golden sweep is slow; skipped in -short")
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden snapshot missing: %v", err)
	}
	var want map[string]fingerprint
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	got := goldenSweep(func(seed int64) interp.Config {
		cfg := runner.SeedConfig(seed, expMaxSteps)
		cfg.Sched = sched.NewFlightRecorder(cfg.Sched, 1<<10)
		return cfg
	})

	if len(got) != len(want) {
		t.Errorf("fingerprint count = %d, golden has %d", len(got), len(want))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: missing from flight-recorded sweep", key)
			continue
		}
		if g != w {
			t.Errorf("%s: flight recorder perturbed the run\n got %+v\nwant %+v", key, g, w)
		}
	}
}
