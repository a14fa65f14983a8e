package sched

// This file is the recording half of record-and-replay. A FlightRecorder
// wraps any Scheduler and transcribes its decision stream — every pick
// (as a run-length-encoded segment stream) and every Intn draw — into
// rings of at most limit entries, while delegating the decisions
// themselves unchanged, so a recorded run is bit-identical to an
// unrecorded one under the same inner scheduler and seed.
//
// One type serves both uses. With a limit no run can reach the ring never
// wraps and keeps the whole stream: that is a deliberate -record capture
// (replay.Record). With a small limit it is aviation-style always-on
// recording: always writing, bounded tape, and the tape only matters when
// something goes wrong. Failing runs die young: a forced-failure run's
// whole schedule fits in a small ring, so for exactly the runs worth
// keeping the recording is complete and replayable bit-identically; long
// healthy runs wrap the ring and their (useless) recording is marked
// truncated instead of eating memory proportional to their step count.

// FlightRecorder wraps an inner scheduler and records the tail of its
// decision stream into bounded rings. It is purely observational: Pick
// and Intn return exactly what the inner scheduler returns, so an
// attached flight recorder never changes a run.
type FlightRecorder struct {
	inner  Scheduler
	stayer Stayer // inner as a Stayer, or nil
	limit  int    // ring capacity, in segments (and in Intn draws)

	segs  []Segment // ring; logical order starts at segStart once full
	start int       // index of the oldest segment when len(segs) == limit

	intns     []int64 // ring of Intn draws
	intnStart int

	picks        int64
	droppedSegs  int64 // segments evicted from the ring
	droppedPicks int64 // picks inside evicted segments
	droppedIntns int64
}

// DefaultFlightSegments is the ring capacity used when limit <= 0: deep
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
	return f
}

// lastIdx returns the ring index of the newest segment; only valid when
// len(f.segs) > 0.
func (f *FlightRecorder) lastIdx() int {
	if len(f.segs) < f.limit || f.start == 0 {
		return len(f.segs) - 1
	}
	return f.start - 1
}

// Pick implements Scheduler, recording the chosen thread in the ring.
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
// the ring records them as one run.
func (f *FlightRecorder) Advance(tid int, k int64) {
	if k <= 0 {
		return
	}
	f.stayer.Advance(tid, k)
	f.NoteRun(int32(tid), k)
}

// Note records one pick of tid without consulting the inner scheduler.
// The interpreter's devirtualized fast path draws from the inner
// *Random directly (bit-identical arithmetic to Random.Pick) and reports
// each resulting decision here, so the recorded stream is exactly what
// routing every pick through Pick would produce. The common same-thread
// case is one compare and one increment.
func (f *FlightRecorder) Note(tid int32) {
	f.picks++
	if len(f.segs) > 0 {
		if last := f.lastIdx(); f.segs[last].TID == tid {
			f.segs[last].N++
			return
		}
	}
	f.push(tid, 1)
}

// NoteRun records n consecutive picks of tid — a superblock quantum's
// worth — in one ring update. n <= 0 is a no-op.
func (f *FlightRecorder) NoteRun(tid int32, n int64) {
	if n <= 0 {
		return
	}
	f.picks += n
	if len(f.segs) > 0 {
		if last := f.lastIdx(); f.segs[last].TID == tid {
			f.segs[last].N += n
			return
		}
	}
	f.push(tid, n)
}

// push starts a new segment, evicting the oldest slot when the ring is
// full (the slot after it then becomes the oldest).
func (f *FlightRecorder) push(tid int32, n int64) {
	if len(f.segs) < f.limit {
		f.segs = append(f.segs, Segment{TID: tid, N: n})
		return
	}
	f.droppedSegs++
	f.droppedPicks += f.segs[f.start].N
	f.segs[f.start] = Segment{TID: tid, N: n}
	f.start++
	if f.start == f.limit {
		f.start = 0
	}
}

// Intn implements Scheduler, recording the drawn value in the ring.
func (f *FlightRecorder) Intn(n int) int {
	v := f.inner.Intn(n)
	if len(f.intns) < f.limit {
		f.intns = append(f.intns, int64(v))
		return v
	}
	f.droppedIntns++
	f.intns[f.intnStart] = int64(v)
	f.intnStart++
	if f.intnStart == f.limit {
		f.intnStart = 0
	}
	return v
}

// Name implements Scheduler.
func (f *FlightRecorder) Name() string { return "flight(" + f.inner.Name() + ")" }

// Inner returns the wrapped scheduler.
func (f *FlightRecorder) Inner() Scheduler { return f.inner }

// Segments returns a copy of the retained pick stream, oldest first.
func (f *FlightRecorder) Segments() []Segment {
	out := make([]Segment, 0, len(f.segs))
	out = append(out, f.segs[f.start:]...)
	out = append(out, f.segs[:f.start]...)
	return out
}

// Intns returns a copy of the retained Intn draws, oldest first.
func (f *FlightRecorder) Intns() []int64 {
	out := make([]int64, 0, len(f.intns))
	out = append(out, f.intns[f.intnStart:]...)
	out = append(out, f.intns[:f.intnStart]...)
	return out
}

// Picks returns the total number of scheduling decisions observed
// (including ones whose segments have been evicted).
func (f *FlightRecorder) Picks() int64 { return f.picks }

// Truncated reports whether the ring wrapped: the retained stream is then
// a strict suffix of the run's schedule and cannot replay the run from
// the start.
func (f *FlightRecorder) Truncated() bool { return f.droppedSegs > 0 || f.droppedIntns > 0 }

// Dropped returns the eviction counters: whole segments evicted, picks
// inside them, and Intn draws evicted.
func (f *FlightRecorder) Dropped() (segs, picks, intns int64) {
	return f.droppedSegs, f.droppedPicks, f.droppedIntns
}
