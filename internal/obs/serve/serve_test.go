package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"conair/internal/bugs"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/obs"
	"conair/internal/obs/obstest"
	"conair/internal/replay"
	"conair/internal/runner"
)

// newServedEngine wires a server-fed engine the way the CLIs do: shared
// metrics registry, run hook, always-on flight recorder.
func newServedEngine() (*Server, runner.Engine) {
	srv := New(obs.NewRegistry())
	return srv, runner.Engine{
		Workers:     2,
		Reg:         srv.Reg,
		RunHook:     srv.Hook(),
		FlightLimit: runner.DefaultFlightLimit,
	}
}

// sweep drives a forced-bug sweep through the engine and returns the
// module it ran.
func sweep(e runner.Engine) *mir.Module {
	mod := bugs.ByName("ZSNES").Program(bugs.Config{Light: true, ForceBug: true})
	runner.Map(e, 4, func(i int) *interp.Result {
		return e.RunJob(mod, runner.SeedConfig(int64(i), 0), replay.Meta{Seed: int64(i), Label: mod.Name})
	})
	return mod
}

// get fetches a path from the test server and returns status and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, body
}

// runsIndex is the /runs response shape.
type runsIndex struct {
	Total    int64       `json:"total"`
	Evicted  int64       `json:"evicted"`
	Retained int         `json:"retained"`
	Runs     []RunRecord `json:"runs"`
}

// TestServeEndToEnd is the acceptance path: a sweep with failures under
// an always-on flight recorder, then every artifact retrieved over HTTP —
// runs index, run detail, a .cnr that verifies bit-identically against
// the module, a Chrome trace, and a validator-clean /metrics exposition.
func TestServeEndToEnd(t *testing.T) {
	srv, e := newServedEngine()
	defer srv.Close()
	mod := sweep(e)

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/healthz")
	if code != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body = get(t, ts, "/runs")
	if code != http.StatusOK {
		t.Fatalf("/runs = %d", code)
	}
	var idx runsIndex
	if err := json.Unmarshal(body, &idx); err != nil {
		t.Fatalf("/runs JSON: %v", err)
	}
	if idx.Total != 4 || idx.Retained != 4 || idx.Evicted != 0 {
		t.Fatalf("/runs totals = %+v, want 4 runs retained", idx)
	}
	var failed *RunRecord
	for i := range idx.Runs {
		r := &idx.Runs[i]
		if r.Label != mod.Name || r.Sched != "random" {
			t.Errorf("run %d provenance = %q/%q", r.ID, r.Label, r.Sched)
		}
		if !r.Completed && r.HasRecording && failed == nil {
			failed = r
		}
	}
	if failed == nil {
		t.Fatal("forced-bug sweep produced no failed run with a flight recording")
	}
	if failed.Verdict == "ok" || failed.FailureKey == "completed" {
		t.Fatalf("failed run has clean verdict: %+v", failed)
	}

	// Run detail includes recording metadata.
	code, body = get(t, ts, fmt.Sprintf("/runs/%d", failed.ID))
	if code != http.StatusOK {
		t.Fatalf("/runs/%d = %d", failed.ID, code)
	}
	var detail struct {
		Run       RunRecord      `json:"run"`
		Recording map[string]any `json:"recording"`
	}
	if err := json.Unmarshal(body, &detail); err != nil {
		t.Fatalf("run detail JSON: %v", err)
	}
	if detail.Run.ID != failed.ID || detail.Recording == nil {
		t.Fatalf("run detail = %+v", detail)
	}

	// The flight .cnr replays bit-identically: same failure fingerprint.
	code, body = get(t, ts, fmt.Sprintf("/runs/%d/recording", failed.ID))
	if code != http.StatusOK {
		t.Fatalf("/runs/%d/recording = %d: %s", failed.ID, code, body)
	}
	rec, err := replay.Decode(body)
	if err != nil {
		t.Fatalf("served .cnr does not decode: %v", err)
	}
	if err := replay.Verify(mod, rec); err != nil {
		t.Fatalf("served .cnr does not verify: %v", err)
	}
	if rec.Fingerprint.FailureKey() != failed.FailureKey {
		t.Fatalf("recording failure key %q != registry %q",
			rec.Fingerprint.FailureKey(), failed.FailureKey)
	}

	// On-demand Chrome trace of the recorded schedule.
	code, body = get(t, ts, fmt.Sprintf("/runs/%d/trace", failed.ID))
	if code != http.StatusOK {
		t.Fatalf("/runs/%d/trace = %d: %s", failed.ID, code, body)
	}
	trace, err := obstest.ReadChromeTrace(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("served trace invalid: %v", err)
	}
	if obstest.CountName(trace, "failure") == 0 {
		t.Error("trace of a failing run carries no failure instant")
	}

	// /metrics validates and reflects the sweep.
	code, body = get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if err := obstest.ValidateExposition(body); err != nil {
		t.Fatalf("/metrics exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		"serve_runs_total 4",
		"# HELP engine_queue_depth",
		"engine_queue_depth 0",
		"# TYPE engine_job_ns histogram",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServeErrorPaths pins the failure-mode status codes.
func TestServeErrorPaths(t *testing.T) {
	srv, e := newServedEngine()
	defer srv.Close()

	// One clean run (no failure, but flight recording exists) and one
	// truncated run.
	ok := mir.MustParse("module ok\nfunc main() {\nentry:\n  ret 0\n}\n")
	e.RunJob(ok, runner.SeedConfig(1, 0), replay.Meta{Label: "clean", Seed: 1})
	tiny := e
	tiny.FlightLimit = 2
	mod := bugs.ByName("ZSNES").Program(bugs.Config{Light: true, ForceBug: true})
	tiny.RunJob(mod, runner.SeedConfig(1, 0), replay.Meta{Label: "wrapped", Seed: 1})
	bare := e
	bare.FlightLimit = 0
	bare.RunJob(ok, runner.SeedConfig(2, 0), replay.Meta{Label: "bare", Seed: 2})

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/runs/abc", http.StatusBadRequest},
		{"/runs/999", http.StatusNotFound},
		{"/runs/999/recording", http.StatusNotFound},
		{"/runs/2/recording", http.StatusConflict}, // truncated recording
		{"/runs/3/recording", http.StatusConflict}, // no flight recorder
		{"/runs/3/trace", http.StatusConflict},
		{"/nope", http.StatusNotFound},
	} {
		if code, _ := get(t, ts, tc.path); code != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, code, tc.want)
		}
	}
}

// TestServeEvents subscribes to the SSE stream and checks both hook-fed
// run events and caller-published events arrive, framed correctly.
func TestServeEvents(t *testing.T) {
	srv, e := newServedEngine()
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// The subscription registers shortly after the handler's hello
	// comment; publish until the subscriber sees something, then drive a
	// run through the engine and expect its event too.
	done := make(chan struct{})
	defer close(done)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			case <-time.After(5 * time.Millisecond):
				srv.Publish("tick", map[string]int{"i": i})
			}
		}
	}()
	go func() {
		// One failing run, fed once the stream is live; send a few in case
		// the first lands before the subscription.
		for i := 0; i < 3; i++ {
			select {
			case <-done:
				return
			case <-time.After(20 * time.Millisecond):
				sweep(e)
			}
		}
	}()

	sc := bufio.NewScanner(resp.Body)
	deadline := time.After(10 * time.Second)
	sawTick, sawRun := false, false
	lines := make(chan string, 16)
	go func() {
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-done:
				return
			}
		}
	}()
	var event string
	for !(sawTick && sawRun) {
		select {
		case <-deadline:
			t.Fatalf("SSE stream: tick=%v run=%v after 10s", sawTick, sawRun)
		case line := <-lines:
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				payload := strings.TrimPrefix(line, "data: ")
				switch event {
				case "tick":
					sawTick = true
				case "run":
					var rec RunRecord
					if err := json.Unmarshal([]byte(payload), &rec); err != nil {
						t.Fatalf("run event payload: %v", err)
					}
					if rec.ID == 0 || rec.Label == "" {
						t.Fatalf("run event incomplete: %+v", rec)
					}
					sawRun = true
				}
			}
		}
	}
}

// TestFlushFlight writes retained failing recordings to disk exactly
// once, and the flushed .cnr round-trips through the decoder and
// verifier.
func TestFlushFlight(t *testing.T) {
	srv, e := newServedEngine()
	defer srv.Close()
	mod := sweep(e)

	dir := t.TempDir()
	paths, err := srv.FlushFlight(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no flight artifacts flushed from a forced-bug sweep")
	}
	for _, p := range paths {
		rec, err := replay.ReadFile(p)
		if err != nil {
			t.Fatalf("flushed %s does not read back: %v", p, err)
		}
		if err := replay.Verify(mod, rec); err != nil {
			t.Fatalf("flushed %s does not verify: %v", p, err)
		}
	}
	// The registry now reports the on-disk path.
	runs, _, _ := srv.Runs.List()
	flushed := 0
	for _, r := range runs {
		if r.RecordingPath != "" {
			flushed++
		}
	}
	if flushed != len(paths) {
		t.Errorf("%d runs report a recording path, %d were flushed", flushed, len(paths))
	}
	// Idempotent: nothing left to flush.
	again, err := srv.FlushFlight(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Errorf("second flush wrote %d files, want 0", len(again))
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != len(paths) {
		t.Errorf("dir has %d files, want %d", len(entries), len(paths))
	}
}

// TestRunRegistryEviction pins the bounded-window semantics: IDs keep
// growing, old records (and their recordings) fall off, Get misses
// evicted IDs.
func TestRunRegistryEviction(t *testing.T) {
	rr := NewRunRegistry(3)
	for seed := int64(1); seed <= 5; seed++ {
		rr.Add(runner.RunInfo{Label: "x", Seed: seed, Sched: "random"})
	}
	runs, total, evicted := rr.List()
	if total != 5 || evicted != 2 || len(runs) != 3 {
		t.Fatalf("List = %d runs, total %d, evicted %d", len(runs), total, evicted)
	}
	if runs[0].ID != 3 || runs[2].ID != 5 {
		t.Fatalf("retained window = %d..%d, want 3..5", runs[0].ID, runs[2].ID)
	}
	if _, ok := rr.Get(2); ok {
		t.Error("evicted run still retrievable")
	}
	if got, ok := rr.Get(4); !ok || got.Seed != 4 {
		t.Errorf("Get(4) = %+v, %v", got, ok)
	}
	if _, ok := rr.Get(6); ok {
		t.Error("future run id retrievable")
	}
}
