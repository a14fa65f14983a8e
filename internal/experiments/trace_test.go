package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"conair/internal/bugs"
	"conair/internal/interp"
	"conair/internal/obs"
	"conair/internal/obs/obstest"
	"conair/internal/runner"
)

// TestTracingDoesNotPerturbExecution is the guard for the tracing fast
// path's passivity: the full golden sweep (every bug, every hardening
// variant, every pinned seed — the 140-entry set in testdata) must
// produce bit-identical fingerprints with a trace sink attached. Any
// emit-site that mutates interpreter state, consumes scheduler
// randomness, or shifts virtual time moves at least one fingerprint.
func TestTracingDoesNotPerturbExecution(t *testing.T) {
	if testing.Short() {
		t.Skip("full traced golden sweep is slow; skipped in -short")
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
		// A small ring: constant memory even on 100M-step runs, and
		// wrap-around must be just as passive as recording.
		cfg.Sink = obs.NewTracer(1 << 12)
		return cfg
	})

	if len(got) != len(want) {
		t.Errorf("fingerprint count = %d, golden has %d", len(got), len(want))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: missing from traced sweep", key)
			continue
		}
		if g != w {
			t.Errorf("%s: tracing perturbed the run\n got %+v\nwant %+v", key, g, w)
		}
	}
}

// TestChromeTraceMatchesStats replays one (bug, seed) pair with tracing
// on, exports the Chrome trace, parses it back, and reconciles the
// exported rollback/checkpoint events against the run's Stats — the
// acceptance check that the trace is a faithful record, not a sample.
func TestChromeTraceMatchesStats(t *testing.T) {
	for _, name := range []string{"MySQL1", "MozillaXP"} {
		b := bugs.ByName(name)
		if b == nil {
			t.Fatalf("unknown bug %s", name)
		}
		p := prep(b)
		tr := obs.NewTracer(1 << 20)
		cfg := runner.SeedConfig(7, expMaxSteps)
		cfg.Sink = tr
		r := interp.RunModule(p.forcedFix.Module, cfg)

		if tr.Dropped() != 0 {
			t.Fatalf("%s: ring dropped %d events; enlarge the buffer", name, tr.Dropped())
		}
		if got := tr.Count(obs.KindCheckpoint); got != r.Stats.Checkpoints {
			t.Errorf("%s: tracer counted %d checkpoints, stats say %d", name, got, r.Stats.Checkpoints)
		}
		if got := tr.Count(obs.KindRollback); got != r.Stats.Rollbacks {
			t.Errorf("%s: tracer counted %d rollbacks, stats say %d", name, got, r.Stats.Rollbacks)
		}
		// Note: Stats.Steps is virtual time, which pickThread warps past
		// sleeping periods, so it can exceed the sched-pick count; the
		// pick count must never exceed it though.
		if got := tr.Count(obs.KindSchedPick); got > r.Stats.Steps {
			t.Errorf("%s: tracer counted %d sched picks, more than %d steps", name, got, r.Stats.Steps)
		}

		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, tr.Events()); err != nil {
			t.Fatal(err)
		}
		ct, err := obstest.ReadChromeTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := obstest.CountName(ct, "checkpoint"); int64(got) != r.Stats.Checkpoints {
			t.Errorf("%s: chrome trace has %d checkpoint events, stats say %d",
				name, got, r.Stats.Checkpoints)
		}
		if got := obstest.CountName(ct, "rollback"); int64(got) != r.Stats.Rollbacks {
			t.Errorf("%s: chrome trace has %d rollback events, stats say %d",
				name, got, r.Stats.Rollbacks)
		}

		// The reconstructed timeline must agree with the run's episodes.
		sum := obs.Summarize(tr.Events())
		if len(sum.Episodes) != len(r.Stats.Episodes) {
			t.Errorf("%s: timeline has %d episodes, stats have %d",
				name, len(sum.Episodes), len(r.Stats.Episodes))
		}
		for i := range sum.Episodes {
			if i >= len(r.Stats.Episodes) {
				break
			}
			se, re := sum.Episodes[i], r.Stats.Episodes[i]
			if se.Start != re.Start || se.Retries != re.Retries ||
				se.Recovered != re.Recovered || int(se.Site) != re.Site {
				t.Errorf("%s: episode %d mismatch: trace %+v vs stats %+v", name, i, se, re)
			}
		}
	}
}

// TestEngineMetricsRegistered checks that experiment sweeps populate the
// package registry: engine job counters and interpreter run counters must
// advance when a table regenerates.
func TestEngineMetricsRegistered(t *testing.T) {
	jobs0 := Registry().Counter("engine_jobs_total").Value()
	runs0 := Registry().Counter("interp_runs_total").Value()
	Table5()
	if got := Registry().Counter("engine_jobs_total").Value(); got <= jobs0 {
		t.Errorf("engine_jobs_total did not advance: %d -> %d", jobs0, got)
	}
	if got := Registry().Counter("interp_runs_total").Value(); got <= runs0 {
		t.Errorf("interp_runs_total did not advance: %d -> %d", runs0, got)
	}
	if Registry().Gauge("engine_queue_depth").Value() != 0 {
		t.Errorf("engine_queue_depth should rest at 0, got %d",
			Registry().Gauge("engine_queue_depth").Value())
	}
}
