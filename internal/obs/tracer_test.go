package obs

import (
	"reflect"
	"testing"
)

func TestTracerRecordsInOrder(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 5; i++ {
		tr.Record(Event{Step: int64(i), Kind: KindSchedPick, TID: int32(i % 2)})
	}
	ev := tr.Events()
	if len(ev) != 5 {
		t.Fatalf("got %d events, want 5", len(ev))
	}
	for i, e := range ev {
		if e.Step != int64(i) {
			t.Errorf("event %d has step %d", i, e.Step)
		}
	}
	if tr.Recorded() != 5 || tr.Dropped() != 0 {
		t.Errorf("recorded=%d dropped=%d, want 5/0", tr.Recorded(), tr.Dropped())
	}
}

func TestTracerRingOverwritesOldest(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Step: int64(i), Kind: KindCheckpoint})
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("got %d events, want 4", len(ev))
	}
	want := []int64{6, 7, 8, 9}
	for i, e := range ev {
		if e.Step != want[i] {
			t.Errorf("event %d has step %d, want %d", i, e.Step, want[i])
		}
	}
	if tr.Count(KindCheckpoint) != 10 {
		t.Errorf("count survived the ring: got %d, want 10", tr.Count(KindCheckpoint))
	}
	if tr.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", tr.Dropped())
	}
}

func TestTracerReset(t *testing.T) {
	tr := NewTracer(4)
	tr.Record(Event{Kind: KindRollback})
	tr.Reset()
	if len(tr.Events()) != 0 || tr.Recorded() != 0 || tr.Count(KindRollback) != 0 {
		t.Error("reset did not clear the tracer")
	}
	tr.Record(Event{Step: 42, Kind: KindFailure, Text: "boom"})
	ev := tr.Events()
	if len(ev) != 1 || ev[0].Step != 42 {
		t.Errorf("tracer unusable after reset: %+v", ev)
	}
}

func TestSummarizeReconstructsEpisodes(t *testing.T) {
	events := []Event{
		{Step: 1, Kind: KindThreadSpawn, TID: 0},
		{Step: 10, Kind: KindEpisodeBegin, TID: 1, Site: 3},
		{Step: 10, Kind: KindRollback, TID: 1, Site: 3, Arg: 1},
		{Step: 14, Kind: KindRollback, TID: 1, Site: 3, Arg: 2},
		{Step: 20, Kind: KindEpisodeEnd, TID: 1, Site: 3, Arg: 2},
		{Step: 30, Kind: KindEpisodeBegin, TID: 2, Site: 5},
		{Step: 30, Kind: KindRollback, TID: 2, Site: 5, Arg: 1},
		{Step: 40, Kind: KindFailure, TID: 2, Site: 5, Text: "assert"},
	}
	s := Summarize(events)
	if len(s.Episodes) != 2 {
		t.Fatalf("got %d episodes, want 2", len(s.Episodes))
	}
	closed := s.Episodes[0]
	want := EpisodeSpan{Site: 3, TID: 1, Start: 10, End: 20, Retries: 2, Recovered: true}
	if !reflect.DeepEqual(closed, want) {
		t.Errorf("closed episode = %+v, want %+v", closed, want)
	}
	if d := closed.Duration(); d != 10 {
		t.Errorf("closed duration = %d, want 10", d)
	}
	openEp := s.Episodes[1]
	if openEp.Recovered || openEp.Retries != 1 || openEp.Site != 5 {
		t.Errorf("open episode = %+v", openEp)
	}
	if d := openEp.Duration(); d != -1 {
		t.Errorf("open duration = %d, want -1", d)
	}
	if len(s.Failures) != 1 || s.Failures[0].Text != "assert" {
		t.Errorf("failures = %+v", s.Failures)
	}
	if s.Count(KindRollback) != 3 {
		t.Errorf("rollback count = %d, want 3", s.Count(KindRollback))
	}
}
