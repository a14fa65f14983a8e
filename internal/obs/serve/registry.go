// Package serve is the live half of internal/obs: an embeddable HTTP
// server that exposes the process's metrics registry, pprof, a bounded
// registry of recent interpreter runs (fed by runner.Engine via RunHook),
// per-run flight recordings and Chrome traces, and a server-sent-event
// stream of run completions. It depends only on the standard library and
// never drives execution — everything it serves is observational.
package serve

import (
	"sync"

	"conair/internal/replay"
	"conair/internal/runner"
)

// DefaultRunCap bounds the run registry: a multi-hour sweep completes
// millions of jobs, but forensics only ever needs the recent window, so
// older records (and their retained flight recordings) are evicted FIFO.
const DefaultRunCap = 1024

// RunRecord is one completed job as the registry retains it; the JSON
// form is what /runs serves.
type RunRecord struct {
	ID    int64  `json:"id"`
	Label string `json:"label"`
	Seed  int64  `json:"seed"`
	Sched string `json:"sched"`

	Completed bool `json:"completed"`
	// Verdict is "ok" for completed runs, the failure kind otherwise
	// ("deadlock", "assert", "panic", ...).
	Verdict string `json:"verdict"`
	// FailureKey is the schedule-independent failure identity
	// (kind@pos#site), "completed" for clean runs.
	FailureKey string `json:"failureKey"`
	FailureMsg string `json:"failureMsg,omitempty"`

	Steps     int64 `json:"steps"`
	Episodes  int   `json:"episodes"`
	Rollbacks int64 `json:"rollbacks"`
	LatencyNS int64 `json:"latencyNs"`

	HasRecording       bool   `json:"hasRecording"`
	RecordingTruncated bool   `json:"recordingTruncated"`
	RecordingPath      string `json:"recordingPath,omitempty"`

	recording *replay.Recording // retained server-side for /recording and /trace
}

// RunRegistry is a bounded, concurrency-safe log of completed runs. IDs
// are assigned in completion order starting at 1 and never reused; Get by
// ID keeps working until the record is evicted.
type RunRegistry struct {
	mu      sync.Mutex
	cap     int
	nextID  int64
	evicted int64
	runs    []*RunRecord // insertion order, oldest first
}

// NewRunRegistry returns a registry keeping the most recent capacity runs
// (DefaultRunCap if capacity <= 0).
func NewRunRegistry(capacity int) *RunRegistry {
	if capacity <= 0 {
		capacity = DefaultRunCap
	}
	return &RunRegistry{cap: capacity, nextID: 1}
}

// Add records one completed job and returns its registry record.
func (rr *RunRegistry) Add(info runner.RunInfo) RunRecord {
	rec := &RunRecord{
		Label:              info.Label,
		Seed:               info.Seed,
		Sched:              info.Sched,
		LatencyNS:          info.Elapsed.Nanoseconds(),
		HasRecording:       info.Recording != nil,
		RecordingTruncated: info.RecordingTruncated,
		RecordingPath:      info.RecordingPath,
		recording:          info.Recording,
	}
	if r := info.Result; r != nil {
		fp := replay.FingerprintOf(r)
		rec.Completed = r.Completed
		rec.Verdict = "ok"
		if r.Failure != nil {
			rec.Verdict = r.Failure.Kind.String()
			rec.FailureMsg = r.Failure.Msg
		}
		rec.FailureKey = fp.FailureKey()
		rec.Steps = r.Stats.Steps
		rec.Episodes = len(r.Stats.Episodes)
		rec.Rollbacks = r.Stats.Rollbacks
	}

	rr.mu.Lock()
	rec.ID = rr.nextID
	rr.nextID++
	rr.runs = append(rr.runs, rec)
	if len(rr.runs) > rr.cap {
		over := len(rr.runs) - rr.cap
		rr.evicted += int64(over)
		rr.runs = append(rr.runs[:0:0], rr.runs[over:]...)
	}
	out := *rec
	rr.mu.Unlock()
	return out
}

// List returns the retained records oldest first, plus the total number
// of runs ever added and how many have been evicted.
func (rr *RunRegistry) List() (runs []RunRecord, total, evicted int64) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	runs = make([]RunRecord, len(rr.runs))
	for i, r := range rr.runs {
		runs[i] = *r
	}
	return runs, rr.nextID - 1, rr.evicted
}

// Get returns the record with the given ID, if still retained.
func (rr *RunRegistry) Get(id int64) (RunRecord, bool) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if r := rr.find(id); r != nil {
		return *r, true
	}
	return RunRecord{}, false
}

// Recording returns the retained flight recording for a run.
func (rr *RunRegistry) Recording(id int64) (*replay.Recording, bool) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if r := rr.find(id); r != nil {
		return r.recording, true
	}
	return nil, false
}

// find locates a record by ID; IDs are assigned in insertion order, so
// the slice is sorted and the offset from the oldest retained ID is the
// index. Caller holds the lock.
func (rr *RunRegistry) find(id int64) *RunRecord {
	if len(rr.runs) == 0 {
		return nil
	}
	i := id - rr.runs[0].ID
	if i < 0 || i >= int64(len(rr.runs)) {
		return nil
	}
	return rr.runs[i]
}

// FlushFlight writes every retained failing run's complete recording that
// is not on disk yet (no RecordingPath, whether from an earlier flush or
// from a hook ahead of the registry) into dir through replay.WriteFailure,
// numbered by run ID, and returns the written paths. This is the SIGINT
// path: whatever failures the flight recorder caught survive the process.
func (rr *RunRegistry) FlushFlight(dir string) ([]string, error) {
	rr.mu.Lock()
	var pending []*RunRecord
	for _, r := range rr.runs {
		if r.recording != nil && !r.Completed && r.RecordingPath == "" {
			pending = append(pending, r)
		}
	}
	rr.mu.Unlock()

	var paths []string
	for _, r := range pending {
		path, err := replay.WriteFailure(dir, r.ID, r.recording)
		if err != nil {
			return paths, err
		}
		rr.mu.Lock()
		r.RecordingPath = path
		rr.mu.Unlock()
		paths = append(paths, path)
	}
	return paths, nil
}
