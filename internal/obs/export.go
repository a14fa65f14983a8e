package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// WriteJSONL writes one JSON object per event, in order, the kind by its
// wire name (Kind.String).
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ChromeEvent is one entry of the Chrome trace_event format (the subset
// this package emits: M metadata, X complete slices, i instants).
// Timestamps are microseconds; the exporter maps one interpreter step to
// one microsecond.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the JSON-object form of the trace_event format, loadable
// in chrome://tracing and Perfetto.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit,omitempty"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// tracePID is the single process id all tracks live under.
const tracePID = 1

// BuildChromeTrace converts raw events into trace_event entries:
//
//   - metadata naming the process and one track per thread;
//   - per-thread execution slices, built by merging consecutive
//     sched-pick events of the same thread (one slice per scheduling
//     quantum);
//   - recovery episodes as duration slices on their thread's track
//     (episode-begin .. episode-end; an episode still open at the end of
//     the trace is closed at the last event's step and marked
//     unrecovered);
//   - everything else (checkpoints, rollbacks, lock events, spawns,
//     exits, blocks, failures, outputs) as instant events.
func BuildChromeTrace(events []Event) *ChromeTrace {
	t := &ChromeTrace{DisplayTimeUnit: "ms"}
	t.TraceEvents = append(t.TraceEvents, ChromeEvent{
		Name: "process_name", Ph: "M", PID: tracePID,
		Args: map[string]any{"name": "conair interpreter run"},
	})

	var lastStep int64
	threads := map[int32]bool{}
	for i := range events {
		if events[i].Step > lastStep {
			lastStep = events[i].Step
		}
		threads[events[i].TID] = true
	}
	tids := make([]int, 0, len(threads))
	for tid := range threads {
		tids = append(tids, int(tid))
	}
	sort.Ints(tids)
	for _, tid := range tids {
		t.TraceEvents = append(t.TraceEvents, ChromeEvent{
			Name: "thread_name", Ph: "M", PID: tracePID, TID: tid,
			Args: map[string]any{"name": fmt.Sprintf("thread %d", tid)},
		})
	}

	// Merge consecutive sched-picks of one thread into execution slices.
	var execTID int32 = -1
	var execStart, execSteps int64
	flushExec := func() {
		if execSteps > 0 {
			t.TraceEvents = append(t.TraceEvents, ChromeEvent{
				Name: "exec", Cat: "sched", Ph: "X",
				TS: execStart, Dur: execSteps,
				PID: tracePID, TID: int(execTID),
			})
		}
		execSteps = 0
	}

	type episodeKey struct {
		tid  int32
		site int32
	}
	open := map[episodeKey]int64{} // open episode → start step

	instant := func(e *Event, name string, args map[string]any) ChromeEvent {
		return ChromeEvent{
			Name: name, Cat: "conair", Ph: "i", Scope: "t",
			TS: e.Step, PID: tracePID, TID: int(e.TID), Args: args,
		}
	}

	for i := range events {
		e := &events[i]
		switch e.Kind {
		case KindSchedPick:
			if e.TID != execTID || execSteps == 0 || e.Step != execStart+execSteps {
				flushExec()
				execTID, execStart = e.TID, e.Step
			}
			execSteps = e.Step - execStart + 1
			continue
		case KindEpisodeBegin:
			open[episodeKey{e.TID, e.Site}] = e.Step
			continue
		case KindEpisodeEnd:
			k := episodeKey{e.TID, e.Site}
			start, ok := open[k]
			if !ok {
				start = e.Step // end without begin (begin fell out of the ring)
			}
			delete(open, k)
			t.TraceEvents = append(t.TraceEvents, ChromeEvent{
				Name: fmt.Sprintf("recovery site %d", e.Site), Cat: "recovery",
				Ph: "X", TS: start, Dur: e.Step - start,
				PID: tracePID, TID: int(e.TID),
				Args: map[string]any{"site": e.Site, "retries": e.Arg, "recovered": true},
			})
			continue
		case KindCheckpoint:
			t.TraceEvents = append(t.TraceEvents,
				instant(e, "checkpoint", map[string]any{"site": e.Site}))
		case KindRollback:
			t.TraceEvents = append(t.TraceEvents,
				instant(e, "rollback", map[string]any{"site": e.Site, "retry": e.Arg}))
		case KindThreadSpawn:
			t.TraceEvents = append(t.TraceEvents, instant(e, "thread-spawn", nil))
		case KindThreadExit:
			t.TraceEvents = append(t.TraceEvents,
				instant(e, "thread-exit", map[string]any{"result": e.Arg}))
		case KindThreadBlock:
			reason := "sleep"
			switch e.Arg {
			case BlockLock:
				reason = "lock"
			case BlockJoin:
				reason = "join"
			case BlockCond:
				reason = "cond"
			case BlockChanSend:
				reason = "chan-send"
			case BlockChanRecv:
				reason = "chan-recv"
			}
			t.TraceEvents = append(t.TraceEvents,
				instant(e, "thread-block", map[string]any{"reason": reason}))
		case KindLockAcquire:
			t.TraceEvents = append(t.TraceEvents,
				instant(e, "lock-acquire", map[string]any{"addr": e.Arg}))
		case KindLockTimeout:
			t.TraceEvents = append(t.TraceEvents,
				instant(e, "lock-timeout", map[string]any{"addr": e.Arg}))
		case KindFailure:
			ev := instant(e, "failure", map[string]any{"site": e.Site, "msg": e.Text})
			ev.Scope = "g" // failures end the run: global scope
			t.TraceEvents = append(t.TraceEvents, ev)
		case KindOutput:
			t.TraceEvents = append(t.TraceEvents,
				instant(e, "output", map[string]any{"text": e.Text, "value": e.Arg}))
		}
	}
	flushExec()

	// Episodes never closed: extend to the end of the trace, unrecovered.
	unclosed := make([]episodeKey, 0, len(open))
	for k := range open {
		unclosed = append(unclosed, k)
	}
	sort.Slice(unclosed, func(i, j int) bool {
		if unclosed[i].tid != unclosed[j].tid {
			return unclosed[i].tid < unclosed[j].tid
		}
		return unclosed[i].site < unclosed[j].site
	})
	for _, k := range unclosed {
		start := open[k]
		t.TraceEvents = append(t.TraceEvents, ChromeEvent{
			Name: fmt.Sprintf("recovery site %d", k.site), Cat: "recovery",
			Ph: "X", TS: start, Dur: lastStep - start,
			PID: tracePID, TID: int(k.tid),
			Args: map[string]any{"site": k.site, "recovered": false},
		})
	}
	return t
}

// WriteChromeTrace renders events as trace_event JSON on w.
func WriteChromeTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if err := enc.Encode(BuildChromeTrace(events)); err != nil {
		return err
	}
	return bw.Flush()
}
