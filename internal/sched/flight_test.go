package sched

import (
	"math"
	"reflect"
	"testing"
)

// TestFlightRecorderTransparent pins the flight recorder's observational
// contract: a wrapped scheduler returns exactly the decisions the
// unwrapped one would, for Pick and Intn, even while a tiny ring wraps
// constantly. TestRecorderTransparent covers the unbounded ring.
func TestFlightRecorderTransparent(t *testing.T) {
	plain := NewRandom(42)
	fr := NewFlightRecorder(NewRandom(42), 8) // tiny ring: wraps constantly

	runnable := [][]int{
		{0}, {0, 1}, {0, 1, 2}, {1, 2}, {0, 2, 5, 9}, {3}, {0, 1, 2, 3, 4},
	}
	var picks int64
	for step := int64(0); step < 10_000; step++ {
		r := runnable[int(step)%len(runnable)]
		if got, want := fr.Pick(r, step), plain.Pick(r, step); got != want {
			t.Fatalf("step %d: flight pick %d, plain pick %d", step, got, want)
		}
		picks++
		if step%97 == 0 {
			n := int(step%7) + 2
			if got, want := fr.Intn(n), plain.Intn(n); got != want {
				t.Fatalf("step %d: flight Intn %d, plain %d", step, got, want)
			}
		}
	}
	if fr.Picks() != picks {
		t.Fatalf("Picks() = %d, want %d", fr.Picks(), picks)
	}
	if !fr.Truncated() {
		t.Fatal("10k picks through an 8-segment ring did not truncate")
	}
	segs, dropped, _ := fr.Dropped()
	var retained int64
	for i, s := range fr.Segments() {
		if s.N <= 0 {
			t.Fatalf("segment with non-positive length: %+v", s)
		}
		if i > 0 && s.TID == fr.Segments()[i-1].TID {
			t.Fatalf("adjacent segments %d and %d share tid %d (not run-length-maximal)",
				i-1, i, s.TID)
		}
		retained += s.N
	}
	if dropped+retained != picks {
		t.Fatalf("dropped %d + retained %d picks != %d observed (%d segments evicted)",
			dropped, retained, picks, segs)
	}
}

// TestFlightRecorderMatchesRecorder checks that an un-wrapped bounded
// flight recording is segment-for-segment identical to the unbounded
// recorder replay.Record captures with, and to an independent log of the
// inner scheduler's decisions — the property that makes a failing run's
// flight tape a complete, bit-identical replayable artifact.
func TestFlightRecorderMatchesRecorder(t *testing.T) {
	full := NewFlightRecorder(NewRandom(9), math.MaxInt)
	fr := NewFlightRecorder(NewRandom(9), 1<<16)
	plain := NewRandom(9)
	var logSegs []Segment
	var logIntns []int64

	runnable := [][]int{{0, 1, 2, 3}, {1, 3}, {0, 2}, {2, 3, 4}}
	for step := int64(0); step < 20_000; step++ {
		r := runnable[int(step)%len(runnable)]
		full.Pick(r, step)
		fr.Pick(r, step)
		logSegs = append(logSegs, Segment{TID: int32(plain.Pick(r, step)), N: 1})
		if step%11 == 0 {
			full.Intn(6)
			fr.Intn(6)
			logIntns = append(logIntns, int64(plain.Intn(6)))
		}
	}
	if fr.Truncated() || full.Truncated() {
		t.Fatal("ring truncated below its capacity")
	}
	for _, ref := range []struct {
		name  string
		segs  []Segment
		intns []int64
	}{
		{"unbounded recorder", full.Segments(), full.Intns()},
		{"decision log", MergeSegments(logSegs), logIntns},
	} {
		if !reflect.DeepEqual(fr.Segments(), ref.segs) {
			t.Fatalf("flight segments diverge from the %s:\n flight %d segs\n %s %d segs",
				ref.name, len(fr.Segments()), ref.name, len(ref.segs))
		}
		if !reflect.DeepEqual(fr.Intns(), ref.intns) {
			t.Fatalf("flight Intn stream diverges from the %s", ref.name)
		}
	}
}

// TestFlightRecorderRingOrder drives a deterministic pick pattern through
// a tiny ring and checks the retained segments are exactly the newest
// ones, oldest first.
func TestFlightRecorderRingOrder(t *testing.T) {
	fr := NewFlightRecorder(NewScripted([]int{1, 2, 3, 4, 5, 6, 7}, 1), 3)
	for step := int64(0); step < 7; step++ {
		// Only the scripted thread is runnable, so each pick is a new
		// single-pick segment.
		fr.Pick([]int{1, 2, 3, 4, 5, 6, 7}, step)
	}
	want := []Segment{{TID: 5, N: 1}, {TID: 6, N: 1}, {TID: 7, N: 1}}
	if got := fr.Segments(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ring retained %+v, want %+v", got, want)
	}
	segs, picks, _ := fr.Dropped()
	if segs != 4 || picks != 4 {
		t.Fatalf("Dropped() = (%d segs, %d picks), want (4, 4)", segs, picks)
	}
}

// TestFlightRecorderLastSegmentExtends pins the RLE boundary case around
// eviction: a repeated pick extends the newest segment in place rather
// than evicting another slot.
func TestFlightRecorderLastSegmentExtends(t *testing.T) {
	fr := NewFlightRecorder(NewScripted([]int{1, 2, 3, 4, 4, 4}, 1), 3)
	for step := int64(0); step < 6; step++ {
		fr.Pick([]int{1, 2, 3, 4}, step)
	}
	want := []Segment{{TID: 2, N: 1}, {TID: 3, N: 1}, {TID: 4, N: 3}}
	if got := fr.Segments(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ring retained %+v, want %+v", got, want)
	}
}
