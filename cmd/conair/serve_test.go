package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"conair/internal/obs"
	"conair/internal/obs/serve"
	"conair/internal/replay"
)

// httpGet fetches url and fails the test on any status but 200.
func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body
}

// TestRunLiveRetainsReplayableRecording drives `conair -run -seed 1
// -serve` on the raw order violation with -serve's wiring behind a test
// server: the failing run reaches /runs with a flight recording, and the
// .cnr served at /runs/{id}/recording passes replay.Verify.
func TestRunLiveRetainsReplayableRecording(t *testing.T) {
	telemetry = serve.New(obs.NewRegistry())
	telemetryHook = telemetry.Hook()
	srv := httptest.NewServer(telemetry.Handler())
	defer func() {
		srv.Close()
		telemetry.Close()
		telemetry, telemetryHook = nil, nil
	}()

	code, err := runProgram(runOpts{file: "../../testdata/orderviolation.mir", schedN: "random", seed: 1, quiet: true},
		io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (the raw program fails under seed 1)", code)
	}

	var runs struct {
		Runs []serve.RunRecord `json:"runs"`
	}
	if err := json.Unmarshal(httpGet(t, srv.URL+"/runs"), &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs.Runs) != 1 {
		t.Fatalf("/runs lists %d runs, want 1", len(runs.Runs))
	}
	run := runs.Runs[0]
	if run.Completed || !run.HasRecording || run.Seed != 1 || run.Sched != "random" {
		t.Fatalf("run = %+v, want a failing seed-1 random run with a recording", run)
	}

	rec, err := replay.Decode(httpGet(t, fmt.Sprintf("%s/runs/%d/recording", srv.URL, run.ID)))
	if err != nil {
		t.Fatal(err)
	}
	m := loadTestdata(t, "orderviolation.mir")
	if rec.Seed != 1 || rec.Label != m.Name || !rec.Fingerprint.Failed {
		t.Fatalf("recording seed %d label %q failed %v, want 1, %q, true", rec.Seed, rec.Label, rec.Fingerprint.Failed, m.Name)
	}
	if err := replay.Verify(m, rec); err != nil {
		t.Fatal(err)
	}
}
