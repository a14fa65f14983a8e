package main

import (
	"os"
	"path/filepath"
	"testing"

	"conair/internal/obs/obstest"
)

// TestRunTraceRoundTrip drives the full -trace path: replay a small
// bug, then parse and schema-validate both output files.
func TestRunTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.json")
	jsonl := filepath.Join(dir, "events.jsonl")
	err := runTrace(traceOpts{
		bug: "FFT", schedN: "random", seed: 7, mode: "fix",
		out: out, jsonl: jsonl, bufCap: 1 << 20,
		maxSteps: 200_000_000, quiet: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ct, err := obstest.ReadChromeTrace(f)
	if err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("chrome trace is empty")
	}
	if obstest.CountName(ct, "process_name") != 1 {
		t.Error("missing process_name metadata")
	}

	ef, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	events, err := obstest.ReadJSONL(ef)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("jsonl event stream is empty")
	}
}

func TestRunTraceRejectsUnknownBug(t *testing.T) {
	err := runTrace(traceOpts{
		bug: "NoSuchBug", schedN: "random", seed: 1, mode: "fix",
		out: filepath.Join(t.TempDir(), "x.json"), bufCap: 16,
	})
	if err == nil {
		t.Fatal("expected an error for an unknown bug")
	}
}
