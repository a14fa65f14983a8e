package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"conair/internal/interp"
	"conair/internal/obs"
	"conair/internal/replay"
	"conair/internal/runner"
	"conair/internal/sched"
)

// TestMinimizeTraceAndRegistry drives `conair -minimize -min-trace` on a
// failing recording, with -serve's run registry attached and without it.
// The command replays the minimized schedule once for both the trace and
// the registered run; each must equal what a separate plain replay and a
// separate traced replay of the written minimized artifact produce.
func TestMinimizeTraceAndRegistry(t *testing.T) {
	dir := t.TempDir()
	art := filepath.Join(dir, "run.cnr")
	err := runRecord(recordOpts{
		out: art, file: "../../testdata/orderviolation.mir", schedN: "random", seed: 1, search: 1,
		maxSteps: 200_000_000, quiet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, serving := range []bool{false, true} {
		var runs []runner.RunInfo
		if serving {
			telemetryHook = func(info runner.RunInfo) { runs = append(runs, info) }
		}
		minOut := filepath.Join(dir, "min.cnr")
		traceOut := filepath.Join(dir, "min.trace.json")
		err := runMinimize(art, "", minOut, traceOut, 0, true)
		telemetryHook = nil
		if err != nil {
			t.Fatal(err)
		}

		min, m, err := loadArtifact(minOut, "")
		if err != nil {
			t.Fatal(err)
		}
		want, _ := replay.Run(m, min, replay.RunOptions{})
		tr := obs.NewTracer(obs.DefaultTracerCap)
		replay.Run(m, min, replay.RunOptions{Sink: tr})
		wantTrace := filepath.Join(dir, "want.trace.json")
		if err := writeEvents(tr.Events(), wantTrace, ""); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(traceOut)
		if err != nil {
			t.Fatal(err)
		}
		if w, _ := os.ReadFile(wantTrace); len(got) == 0 || !bytes.Equal(got, w) {
			t.Fatalf("serving=%v: minimized trace (%d bytes) differs from a separate traced replay (%d bytes)", serving, len(got), len(w))
		}

		if !serving {
			if len(runs) != 0 {
				t.Fatalf("registered %d runs without -serve", len(runs))
			}
			continue
		}
		if len(runs) != 1 {
			t.Fatalf("registered %d runs, want 1", len(runs))
		}
		run := runs[0]
		if run.Label != min.ModuleName+"-minimized" || run.Seed != min.Seed || run.Sched != min.SchedName {
			t.Fatalf("registered %q seed %d sched %q, want %q seed %d sched %q",
				run.Label, run.Seed, run.Sched, min.ModuleName+"-minimized", min.Seed, min.SchedName)
		}
		if !bytes.Equal(replay.Encode(run.Recording), replay.Encode(min)) {
			t.Fatal("registered recording differs from the written minimized artifact")
		}
		if !reflect.DeepEqual(replay.FingerprintOf(run.Result), replay.FingerprintOf(want)) ||
			!reflect.DeepEqual(run.Result.Stats, want.Stats) {
			t.Fatalf("registered run %+v differs from a separate replay %+v", run.Result.Stats, want.Stats)
		}
	}
}

// TestRecordServeNamesScheduler drives `conair -record -sched rr -serve`:
// the run goes through one engine job, so /runs names the scheduler as
// -run does (round-robin, not the flag's rr), and the registered
// recording is the written artifact.
func TestRecordServeNamesScheduler(t *testing.T) {
	var runs []runner.RunInfo
	telemetryHook = func(info runner.RunInfo) { runs = append(runs, info) }
	defer func() { telemetryHook = nil }()
	art := filepath.Join(t.TempDir(), "rr.cnr")
	err := runRecord(recordOpts{
		out: art, file: "../../testdata/orderviolation.mir", schedN: "rr", seed: 1, search: 1,
		maxSteps: 200_000_000, quiet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("registered %d runs, want 1", len(runs))
	}
	if runs[0].Sched != "round-robin" || runs[0].Seed != 1 {
		t.Fatalf("registered sched %q seed %d, want round-robin seed 1", runs[0].Sched, runs[0].Seed)
	}
	rec, err := replay.ReadFile(art)
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].Recording == nil || !bytes.Equal(replay.Encode(runs[0].Recording), replay.Encode(rec)) {
		t.Fatal("registered recording differs from the written artifact")
	}
}

// TestRecordPCTRollbackReplays drives `conair -record -sched pct` on the
// hardened LGFrontier, whose retrying thread rolls back and yields under
// PCT. The flight recorder forwards the yield, so the recorded run is the
// plain run, and the artifact replays strictly through replay.Verify.
func TestRecordPCTRollbackReplays(t *testing.T) {
	o := recordOpts{
		out: filepath.Join(t.TempDir(), "lgf.cnr"), bug: "LGFrontier", hardened: true,
		schedN: "pct", seed: 0, search: 1, maxSteps: 200_000_000, quiet: true,
	}
	if err := runRecord(o); err != nil {
		t.Fatal(err)
	}
	rec, err := replay.ReadFile(o.out)
	if err != nil {
		t.Fatal(err)
	}
	m, err := recordModule(o)
	if err != nil {
		t.Fatal(err)
	}
	plain := interp.RunModule(m, interp.Config{Sched: sched.NewSearchPCT(0), MaxSteps: o.maxSteps})
	if !plain.Completed || plain.Stats.Rollbacks == 0 {
		t.Fatalf("plain PCT run: completed=%v with %d rollbacks, want a recovered run", plain.Completed, plain.Stats.Rollbacks)
	}
	if rec.Fingerprint != replay.FingerprintOf(plain) {
		t.Fatalf("recorded run %+v differs from the plain run %+v", rec.Fingerprint, replay.FingerprintOf(plain))
	}
	if err := replay.Verify(m, rec); err != nil {
		t.Fatal(err)
	}
}
