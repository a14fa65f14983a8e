package sched

// This file is the recording half of record-and-replay. A FlightRecorder
// wraps any Scheduler and transcribes the start of its decision stream —
// every pick (as a run-length-encoded segment stream) and every Intn
// draw — into buffers of at most limit entries, while delegating the
// decisions themselves unchanged, so a recorded run is bit-identical to an
// unrecorded one under the same inner scheduler and seed.
//
// One type serves both uses. With a limit no run can reach the buffers
// never fill and keep the whole stream: that is a deliberate -record
// capture (replay.Record). With a small limit it is aviation-style
// always-on recording: always writing, bounded tape, and the tape only
// matters when something goes wrong. Failing runs die young: a
// forced-failure run's whole schedule fits in a small buffer, so for
// exactly the runs worth keeping the recording is complete and replayable
// bit-identically; a long healthy run fills the buffer, is marked
// truncated and records nothing more, instead of eating memory
// proportional to its step count. Replay needs a stream from the run's
// first decision, so the prefix is all a recorder keeps.

// FlightRecorder wraps an inner scheduler and records the prefix of its
// decision stream into bounded buffers. It is purely observational: Pick
// and Intn return exactly what the inner scheduler returns, so an
// attached flight recorder never changes a run.
type FlightRecorder struct {
	inner   Scheduler
	stayer  Stayer  // inner as a Stayer, or nil
	yielder Yielder // inner as a Yielder, or nil
	limit   int     // buffer capacity, in segments (and in Intn draws)

	segs  []Segment // the run's first segments
	intns []int64   // the run's first Intn draws

	picks int64
	// truncated is set once a segment or draw arrives after its buffer
	// filled; from then on nothing more is recorded.
	truncated bool
}

// DefaultFlightSegments is the buffer capacity used when limit <= 0: deep
// enough that every forced-failure benchmark run fits with a wide margin
// (their full schedules run to a few thousand segments), small enough
// that a worker pool of flight-recorded jobs stays in the megabytes.
const DefaultFlightSegments = 1 << 14

// NewFlightRecorder returns a flight recorder around inner keeping at
// most limit segments (DefaultFlightSegments if limit <= 0).
func NewFlightRecorder(inner Scheduler, limit int) *FlightRecorder {
	if limit <= 0 {
		limit = DefaultFlightSegments
	}
	f := &FlightRecorder{inner: inner, limit: limit}
	f.stayer, _ = inner.(Stayer)
	f.yielder, _ = inner.(Yielder)
	return f
}

// Pick implements Scheduler, recording the chosen thread.
func (f *FlightRecorder) Pick(runnable []int, step int64) int {
	t := f.inner.Pick(runnable, step)
	f.Note(int32(t))
	return t
}

// Stay implements Stayer by asking the inner scheduler; an inner
// scheduler that is not a Stayer never stays.
func (f *FlightRecorder) Stay(tid int, runnable []int, step int64) int64 {
	if f.stayer == nil {
		return 0
	}
	return f.stayer.Stay(tid, runnable, step)
}

// Advance implements Stayer: the inner scheduler commits the picks and
// the recorder records them as one run.
func (f *FlightRecorder) Advance(tid int, k int64) {
	if k <= 0 {
		return
	}
	f.stayer.Advance(tid, k)
	f.NoteRun(int32(tid), k)
}

// Yield implements Yielder by forwarding to the inner scheduler, so a
// flight-recorded run keeps the schedule of a plain one; an inner
// scheduler that is not a Yielder ignores the call. A yield is not a
// pick, so nothing is recorded.
func (f *FlightRecorder) Yield(tid int) {
	if f.yielder != nil {
		f.yielder.Yield(tid)
	}
}

// Note records one pick of tid without consulting the inner scheduler.
// The interpreter's devirtualized fast path draws from the inner
// *Random directly (bit-identical arithmetic to Random.Pick) and reports
// each resulting decision here, so the recorded stream is exactly what
// routing every pick through Pick would produce. The common same-thread
// case is two tests and one increment.
func (f *FlightRecorder) Note(tid int32) {
	f.picks++
	if n := len(f.segs); n > 0 && f.segs[n-1].TID == tid && !f.truncated {
		f.segs[n-1].N++
		return
	}
	f.push(tid, 1)
}

// NoteRun records n consecutive picks of tid — a superblock quantum's
// worth — in one update. n <= 0 is a no-op.
func (f *FlightRecorder) NoteRun(tid int32, n int64) {
	if n <= 0 {
		return
	}
	f.picks += n
	if k := len(f.segs); k > 0 && f.segs[k-1].TID == tid && !f.truncated {
		f.segs[k-1].N += n
		return
	}
	f.push(tid, n)
}

// push starts a new segment, or marks the recording truncated when the
// segment buffer is full.
func (f *FlightRecorder) push(tid int32, n int64) {
	if f.truncated || len(f.segs) == f.limit {
		f.truncated = true
		return
	}
	f.segs = append(f.segs, Segment{TID: tid, N: n})
}

// Intn implements Scheduler, recording the drawn value.
func (f *FlightRecorder) Intn(n int) int {
	v := f.inner.Intn(n)
	if f.truncated || len(f.intns) == f.limit {
		f.truncated = true
		return v
	}
	f.intns = append(f.intns, int64(v))
	return v
}

// Name implements Scheduler.
func (f *FlightRecorder) Name() string { return "flight(" + f.inner.Name() + ")" }

// Inner returns the wrapped scheduler.
func (f *FlightRecorder) Inner() Scheduler { return f.inner }

// Segments returns a copy of the recorded pick stream.
func (f *FlightRecorder) Segments() []Segment {
	return append(make([]Segment, 0, len(f.segs)), f.segs...)
}

// Intns returns a copy of the recorded Intn draws.
func (f *FlightRecorder) Intns() []int64 {
	return append(make([]int64, 0, len(f.intns)), f.intns...)
}

// Picks returns the total number of scheduling decisions observed,
// including those made after the recording was truncated.
func (f *FlightRecorder) Picks() int64 { return f.picks }

// Truncated reports whether the run outgrew the buffers: the recorded
// stream is then a strict prefix of the run's schedule and cannot replay
// the whole run.
func (f *FlightRecorder) Truncated() bool { return f.truncated }
