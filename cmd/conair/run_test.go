package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"conair/internal/core"
	"conair/internal/mir"
)

// hardenToFile hardens a program with the CLI's default options and
// writes it where -o would, returning the path.
func hardenToFile(t *testing.T, m *mir.Module) string {
	t.Helper()
	h, err := core.Harden(m, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "h.mir")
	if err := os.WriteFile(path, []byte(mir.Print(h.Module)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runMode runs a program through -run in-process and pins its exit code,
// stdout and stderr.
func runMode(t *testing.T, o runOpts, wantCode int, wantOut, wantErr string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code, err := runProgram(o, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if code != wantCode {
		t.Errorf("exit code = %d, want %d", code, wantCode)
	}
	if stdout.String() != wantOut {
		t.Errorf("stdout:\n%s\nwant:\n%s", stdout.String(), wantOut)
	}
	if stderr.String() != wantErr {
		t.Errorf("stderr:\n%s\nwant:\n%s", stderr.String(), wantErr)
	}
}

// TestRunModeOrderViolation pins the README/EXPERIMENTS.md walkthrough
// `conair -run -sanitize -seed 1 h.mir` on the hardened order violation:
// the run recovers after 68 rollbacks, and the sanitizer still reports
// the race behind it, so the exit code is 1.
func TestRunModeOrderViolation(t *testing.T) {
	path := hardenToFile(t, loadTestdata(t, "orderviolation.mir"))
	runMode(t, runOpts{file: path, schedN: "random", seed: 1, sanitize: true}, 1,
		"flag: 1\n",
		"steps=215 threads=2 checkpoints=1 rollbacks=68\n"+
			"recovered site 1 on thread 1: 68 retries, 206 steps\n"+
			"conair: sanitizer: read-write race on flag: read by thread 1 at reader:0:1 vs write by thread 0 at main:0:2\n")
}

// TestRunModeLGResults pins the corpus walkthrough `conair -run -seed 3
// lgh.mir`: the hardened langgraph-go results-channel model survives the
// buggy interleaving with one rollback and its output intact.
func TestRunModeLGResults(t *testing.T) {
	m, err := loadModule("../../internal/bugs/testdata/LGResults.mir")
	if err != nil {
		t.Fatal(err)
	}
	path := hardenToFile(t, m)
	runMode(t, runOpts{file: path, schedN: "random", seed: 3}, 0,
		"cancelled: 1\n",
		"steps=566 threads=3 checkpoints=4 rollbacks=1\n")
	// -q drops the statistics, not the output.
	runMode(t, runOpts{file: path, schedN: "random", seed: 3, quiet: true}, 0,
		"cancelled: 1\n", "")
}

func TestRunModeRejectsUnknownScheduler(t *testing.T) {
	var out bytes.Buffer
	_, err := runProgram(runOpts{file: "../../testdata/orderviolation.mir", schedN: "fifo"}, &out, &out)
	if err == nil {
		t.Fatal("expected an error for an unknown scheduler")
	}
}

// TestRecordReplayRoundTrip records one run of a prog.mir under each
// scheduler and replays the artifact strictly, from its embedded text and
// against the program file: runReplay fails unless the replay is
// divergence-free and bit-identical to the recorded fingerprint.
func TestRecordReplayRoundTrip(t *testing.T) {
	const prog = "../../testdata/orderviolation.mir"
	for _, s := range []string{"random", "pct", "rr"} {
		out := filepath.Join(t.TempDir(), s+".cnr")
		err := runRecord(recordOpts{
			out: out, file: prog, schedN: s, seed: 1, search: 1,
			maxSteps: 200_000_000, quiet: true,
		})
		if err != nil {
			t.Fatalf("%s: record: %v", s, err)
		}
		if err := runReplay(out, "", "", true); err != nil {
			t.Errorf("%s: replay: %v", s, err)
		}
		if err := runReplay(out, prog, "", true); err != nil {
			t.Errorf("%s: replay against %s: %v", s, prog, err)
		}
	}
}
