package obs_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"conair/internal/obs"
	"conair/internal/obs/obstest"
)

// sampleEvents is a miniature but representative run trace: two threads,
// an execution slice each, one closed recovery episode, one failure.
func sampleEvents() []obs.Event {
	return []obs.Event{
		{Step: 0, Kind: obs.KindThreadSpawn, TID: 0},
		{Step: 0, Kind: obs.KindSchedPick, TID: 0},
		{Step: 1, Kind: obs.KindSchedPick, TID: 0},
		{Step: 2, Kind: obs.KindThreadSpawn, TID: 1},
		{Step: 2, Kind: obs.KindSchedPick, TID: 1},
		{Step: 3, Kind: obs.KindCheckpoint, TID: 1, Site: 4},
		{Step: 3, Kind: obs.KindSchedPick, TID: 1},
		{Step: 4, Kind: obs.KindThreadBlock, TID: 1, Arg: obs.BlockLock},
		{Step: 4, Kind: obs.KindSchedPick, TID: 0},
		{Step: 5, Kind: obs.KindEpisodeBegin, TID: 1, Site: 4},
		{Step: 5, Kind: obs.KindRollback, TID: 1, Site: 4, Arg: 1},
		{Step: 6, Kind: obs.KindLockAcquire, TID: 1, Arg: 128},
		{Step: 8, Kind: obs.KindEpisodeEnd, TID: 1, Site: 4, Arg: 1},
		{Step: 9, Kind: obs.KindOutput, TID: 0, Text: "done", Arg: 1},
		{Step: 9, Kind: obs.KindFailure, TID: 0, Site: 2, Text: "assert failed"},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	want := sampleEvents()
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := obstest.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("JSONL round trip drifted:\n got %+v\nwant %+v", got, want)
	}
	var unknown *obstest.UnknownKindError
	if _, err := obstest.ReadJSONL(strings.NewReader(`{"step":1,"kind":"nonsense","tid":0}`)); !errors.As(err, &unknown) {
		t.Errorf("unknown kind: err = %v, want UnknownKindError", err)
	}
}

// TestChromeTraceRoundTrip is the emit → parse → validate check the CI
// workflow runs by name: the exported JSON must decode back into an
// equivalent trace and pass schema validation.
func TestChromeTraceRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	ct, err := obstest.ReadChromeTrace(strings.NewReader(raw))
	if err != nil {
		t.Fatalf("round trip failed validation: %v", err)
	}

	built := obs.BuildChromeTrace(events)
	if len(ct.TraceEvents) != len(built.TraceEvents) {
		t.Fatalf("round trip changed event count: %d vs %d",
			len(ct.TraceEvents), len(built.TraceEvents))
	}
	if ct.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", ct.DisplayTimeUnit)
	}

	// One metadata entry per thread plus the process name.
	if got := obstest.CountName(ct, "thread_name"); got != 2 {
		t.Errorf("thread_name metadata count = %d, want 2", got)
	}
	if got := obstest.CountName(ct, "process_name"); got != 1 {
		t.Errorf("process_name metadata count = %d, want 1", got)
	}
	// Instants survive with exact counts.
	for name, want := range map[string]int{
		"checkpoint": 1, "rollback": 1, "thread-spawn": 2,
		"thread-block": 1, "lock-acquire": 1, "failure": 1, "output": 1,
	} {
		if got := obstest.CountName(ct, name); got != want {
			t.Errorf("%s count = %d, want %d", name, got, want)
		}
	}
	// The closed episode becomes a duration slice with its site in the name.
	if got := obstest.CountName(ct, "recovery site 4"); got != 1 {
		t.Errorf("recovery slice count = %d, want 1", got)
	}
	for i := range ct.TraceEvents {
		e := &ct.TraceEvents[i]
		if e.Name == "recovery site 4" {
			if e.Ph != "X" || e.TS != 5 || e.Dur != 3 {
				t.Errorf("episode slice = %+v, want X ts=5 dur=3", e)
			}
		}
	}

	// Determinism: exporting the same events twice is byte-identical.
	var buf2 bytes.Buffer
	if err := obs.WriteChromeTrace(&buf2, events); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != raw {
		t.Error("chrome trace export is not deterministic")
	}
}

func TestChromeTraceExecSliceMerging(t *testing.T) {
	// Thread 0 runs steps 0-2, thread 1 steps 3-4, thread 0 again at 5:
	// three exec slices, never one per pick.
	events := []obs.Event{
		{Step: 0, Kind: obs.KindSchedPick, TID: 0},
		{Step: 1, Kind: obs.KindSchedPick, TID: 0},
		{Step: 2, Kind: obs.KindSchedPick, TID: 0},
		{Step: 3, Kind: obs.KindSchedPick, TID: 1},
		{Step: 4, Kind: obs.KindSchedPick, TID: 1},
		{Step: 5, Kind: obs.KindSchedPick, TID: 0},
	}
	ct := obs.BuildChromeTrace(events)
	var slices []obs.ChromeEvent
	for _, e := range ct.TraceEvents {
		if e.Name == "exec" {
			slices = append(slices, e)
		}
	}
	want := []struct{ tid, ts, dur int64 }{{0, 0, 3}, {1, 3, 2}, {0, 5, 1}}
	if len(slices) != len(want) {
		t.Fatalf("got %d exec slices, want %d: %+v", len(slices), len(want), slices)
	}
	for i, w := range want {
		s := slices[i]
		if int64(s.TID) != w.tid || s.TS != w.ts || s.Dur != w.dur {
			t.Errorf("slice %d = tid=%d ts=%d dur=%d, want %+v", i, s.TID, s.TS, s.Dur, w)
		}
	}
}

func TestChromeTraceUnclosedEpisode(t *testing.T) {
	events := []obs.Event{
		{Step: 1, Kind: obs.KindEpisodeBegin, TID: 2, Site: 9},
		{Step: 1, Kind: obs.KindRollback, TID: 2, Site: 9, Arg: 1},
		{Step: 7, Kind: obs.KindFailure, TID: 2, Site: 9, Text: "stuck"},
	}
	ct := obs.BuildChromeTrace(events)
	found := false
	for _, e := range ct.TraceEvents {
		if e.Name == "recovery site 9" {
			found = true
			if e.Dur != 6 {
				t.Errorf("unclosed episode dur = %d, want 6", e.Dur)
			}
			if rec, ok := e.Args["recovered"].(bool); !ok || rec {
				t.Errorf("unclosed episode args = %v, want recovered:false", e.Args)
			}
		}
	}
	if !found {
		t.Error("unclosed episode produced no slice")
	}
}

func TestValidateRejectsBadTraces(t *testing.T) {
	cases := []struct {
		name string
		ev   obs.ChromeEvent
	}{
		{"empty name", obs.ChromeEvent{Ph: "X"}},
		{"unknown phase", obs.ChromeEvent{Name: "x", Ph: "B"}},
		{"metadata without args", obs.ChromeEvent{Name: "x", Ph: "M"}},
		{"negative duration", obs.ChromeEvent{Name: "x", Ph: "X", Dur: -1}},
		{"bad instant scope", obs.ChromeEvent{Name: "x", Ph: "i", Scope: "z"}},
	}
	for _, c := range cases {
		tr := &obs.ChromeTrace{TraceEvents: []obs.ChromeEvent{c.ev}}
		if err := obstest.ValidateChromeTrace(tr); err == nil {
			t.Errorf("%s: ValidateChromeTrace accepted invalid event %+v", c.name, c.ev)
		}
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	n := 0
	for k := obs.Kind(0); k.String() != "unknown"; k++ {
		got, ok := obstest.KindFromString(k.String())
		if !ok || got != k {
			t.Errorf("kind %d (%s) does not round-trip", k, k)
		}
		n++
	}
	if n != int(obs.KindOutput)+1 {
		t.Errorf("%d kinds have names, want %d", n, int(obs.KindOutput)+1)
	}
	if _, ok := obstest.KindFromString("nonsense"); ok {
		t.Error("KindFromString accepted garbage")
	}
}
