package sched

import "math"

// This file is the sched-level half of record-and-replay: the segment
// stream a FlightRecorder captures (see flight.go) and the SegmentReplay
// that consumes it. A SegmentReplay reproduces the exact recorded
// interleaving: because the interpreter is deterministic given its
// scheduler decisions, replaying the stream replays the whole run,
// failure and all.
//
// The decision stream deliberately records *chosen thread ids*, not RNG
// state: it is scheduler-agnostic (Random, PCT, round-robin and scripted
// schedulers all record the same way) and it is the representation that
// schedule minimization (internal/replay's ddmin) edits directly.

// Segment is one maximal run of consecutive scheduling decisions for the
// same thread: the scheduler picked thread TID for N consecutive executed
// instructions. A schedule's context switches are exactly the boundaries
// between adjacent segments with different TIDs.
type Segment struct {
	TID int32
	N   int64
}

// Switches counts the context switches in a segment stream: boundaries
// between adjacent segments whose thread ids differ.
func Switches(segs []Segment) int {
	n := 0
	for i := 1; i < len(segs); i++ {
		if segs[i].TID != segs[i-1].TID {
			n++
		}
	}
	return n
}

// MergeSegments normalizes a segment stream: adjacent segments with the
// same thread id coalesce and empty segments vanish. Replay semantics are
// unchanged; minimization uses it so switch counts are meaningful.
func MergeSegments(segs []Segment) []Segment {
	out := make([]Segment, 0, len(segs))
	for _, s := range segs {
		if s.N <= 0 {
			continue
		}
		if k := len(out); k > 0 && out[k-1].TID == s.TID {
			out[k-1].N += s.N
			continue
		}
		out = append(out, s)
	}
	return out
}

// SegmentReplay replays a recorded decision stream. While the stream
// holds, every Pick returns the recorded thread and every Intn the
// recorded draw — reproducing the recorded run bit-identically. The
// scheduler is also total: when a recorded thread is not runnable (which
// happens only on edited streams, e.g. ddmin probes) the remainder of
// that segment is skipped and the divergence counted; when the stream is
// exhausted it falls back to the lowest-id runnable thread and zero
// draws, both deterministic, so probe runs remain exactly repeatable.
type SegmentReplay struct {
	segs []Segment
	si   int   // current segment
	used int64 // picks consumed from the current segment

	intns []int64
	ii    int

	diverged  int64 // recorded thread not runnable: segment abandoned
	tailPicks int64 // picks after the segment stream ran out
}

// NewSegmentReplay returns a replay scheduler over the given streams.
// The slices are read, never written.
func NewSegmentReplay(segs []Segment, intns []int64) *SegmentReplay {
	return &SegmentReplay{segs: segs, intns: intns}
}

// Pick implements Scheduler.
func (s *SegmentReplay) Pick(runnable []int, step int64) int {
	for s.si < len(s.segs) {
		seg := &s.segs[s.si]
		if s.used >= seg.N {
			s.si++
			s.used = 0
			continue
		}
		want := int(seg.TID)
		for _, t := range runnable {
			if t == want {
				s.used++
				if s.used >= seg.N {
					s.si++
					s.used = 0
				}
				return t
			}
		}
		// The recorded thread cannot run here: the stream was edited (a
		// minimization probe) and this segment no longer applies. Abandon
		// it deterministically rather than stalling the run.
		s.diverged++
		s.si++
		s.used = 0
	}
	s.tailPicks++
	return runnable[0]
}

// Stay implements Stayer: tid keeps running for the rest of the stream's
// consecutive tid segments (empty ones skipped), and for good once the
// stream is used up if tid is runnable[0], the tail's fallback pick. A
// segment of another thread ends the stay even when that thread cannot
// run: abandoning it is a divergence Pick has to count.
func (s *SegmentReplay) Stay(tid int, runnable []int, _ int64) int64 {
	var k int64
	used := s.used
	for i := s.si; i < len(s.segs); i++ {
		seg := s.segs[i]
		if left := seg.N - used; left > 0 {
			if int(seg.TID) != tid {
				return k
			}
			if left >= math.MaxInt64-k {
				return math.MaxInt64
			}
			k += left
		}
		used = 0
	}
	if tid == runnable[0] {
		return math.MaxInt64
	}
	return k
}

// Advance implements Stayer.
func (s *SegmentReplay) Advance(_ int, k int64) {
	for k > 0 && s.si < len(s.segs) {
		left := s.segs[s.si].N - s.used
		if left > k {
			s.used += k
			return
		}
		if left > 0 {
			k -= left
		}
		s.si++
		s.used = 0
	}
	s.tailPicks += k
}

// Intn implements Scheduler.
func (s *SegmentReplay) Intn(n int) int {
	if s.ii < len(s.intns) {
		v := s.intns[s.ii]
		s.ii++
		if v >= 0 && v < int64(n) {
			return int(v)
		}
		// Out-of-range draw for this call site: the streams desynced on an
		// edited schedule. Reduce deterministically.
		s.diverged++
		return int(((v % int64(n)) + int64(n)) % int64(n))
	}
	return 0
}

// Name implements Scheduler.
func (s *SegmentReplay) Name() string { return "segment-replay" }

// Diverged reports how many decisions could not be replayed as recorded
// (thread not runnable, or draw out of range). A faithful replay of an
// unedited recording has zero divergences; minimization probes routinely
// diverge.
func (s *SegmentReplay) Diverged() int64 { return s.diverged }

// TailPicks reports how many scheduling decisions were made after the
// recorded stream was exhausted (lowest-id fallback).
func (s *SegmentReplay) TailPicks() int64 { return s.tailPicks }

// Exhausted reports whether the whole recorded pick stream was consumed
// or abandoned.
func (s *SegmentReplay) Exhausted() bool { return s.si >= len(s.segs) }
