package main

import (
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"conair/internal/bugs"
	"conair/internal/interp"
	"conair/internal/obs"
	"conair/internal/obs/serve"
	"conair/internal/replay"
	"conair/internal/runner"
)

// TestRecordHook drives -record's hook, chained to a telemetry server as
// under -record -serve, with failing, completing and interrupted runs.
// It writes the failing runs only, every file verifies,
// replay_recordings_written_total counts exactly the files, /runs lists
// every run and reports each file's path, and the flight flush writes
// none of them again. An interrupted run reaches /runs as a hang, but
// where it stopped depends on wall-clock time, so it has no file.
func TestRecordHook(t *testing.T) {
	reg := obs.NewRegistry()
	replay.SetMetricsRegistry(reg)
	defer replay.SetMetricsRegistry(nil)

	srv := serve.New(obs.NewRegistry())
	defer srv.Close()
	dir := filepath.Join(t.TempDir(), "rec")
	e := runner.Engine{Workers: 2, FlightLimit: math.MaxInt, RunHook: recordHook(dir, srv.Hook())}

	b := bugs.ByName("ZSNES")
	results := []*interp.Result{}
	failing := 0
	for _, cfg := range []bugs.Config{{Light: true, ForceBug: true}, {Light: true}} {
		mod := b.Program(cfg)
		for _, r := range runner.Map(e, 4, func(i int) *interp.Result {
			return e.RunJob(mod, runner.SeedConfig(int64(i), 0), replay.Meta{Seed: int64(i), Label: mod.Name})
		}) {
			results = append(results, r)
			if !r.Completed {
				failing++
			}
		}
	}
	if failing == 0 || failing == len(results) {
		t.Fatalf("%d of %d runs failed; the test needs both outcomes", failing, len(results))
	}
	var cancel atomic.Bool
	cancel.Store(true)
	clean := b.Program(bugs.Config{})
	if r := e.RunJob(clean, interp.Config{Interrupt: &cancel}, replay.Meta{Label: "interrupted"}); !r.Interrupted() {
		t.Fatalf("pre-interrupted run = %+v, want the interrupt stop", r.Failure)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != failing {
		t.Fatalf("wrote %d files for %d failing runs", len(entries), failing)
	}
	if n := reg.Counter("replay_recordings_written_total").Value(); n != int64(len(entries)) {
		t.Errorf("replay_recordings_written_total = %d, want %d", n, len(entries))
	}
	for _, ent := range entries {
		path := filepath.Join(dir, ent.Name())
		r, err := replay.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Fingerprint.Failed {
			t.Errorf("%s records a completed run", ent.Name())
		}
		mod, err := r.Module()
		if err != nil {
			t.Fatal(err)
		}
		if err := replay.Verify(mod, r); err != nil {
			t.Errorf("%s does not verify: %v", ent.Name(), err)
		}
	}

	runs, total, _ := srv.Runs.List()
	if total != int64(len(results))+1 {
		t.Errorf("/runs counts %d runs, want %d (the interrupted run is one)", total, len(results)+1)
	}
	withPath := 0
	for _, r := range runs {
		if r.RecordingPath != "" {
			withPath++
		}
	}
	if withPath != failing {
		t.Errorf("/runs reports %d recording paths, want %d", withPath, failing)
	}
	flushed, err := srv.FlushFlight(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(flushed) != 0 {
		t.Errorf("flight flush wrote %d files -record had already written", len(flushed))
	}
}
