package sched

import (
	"math"
	"reflect"
	"testing"
)

// TestFlightRecorderTransparent pins the flight recorder's observational
// contract: a wrapped scheduler returns exactly the decisions the
// unwrapped one would, for Pick and Intn, even long after a tiny buffer
// filled. What it keeps is the prefix of the decision stream.
// TestRecorderTransparent covers the unbounded buffer.
func TestFlightRecorderTransparent(t *testing.T) {
	plain := NewRandom(42)
	fr := NewFlightRecorder(NewRandom(42), 8) // tiny buffer: fills at once
	var logSegs []Segment
	var logIntns []int64

	runnable := [][]int{
		{0}, {0, 1}, {0, 1, 2}, {1, 2}, {0, 2, 5, 9}, {3}, {0, 1, 2, 3, 4},
	}
	var picks int64
	for step := int64(0); step < 10_000; step++ {
		r := runnable[int(step)%len(runnable)]
		got, want := fr.Pick(r, step), plain.Pick(r, step)
		if got != want {
			t.Fatalf("step %d: flight pick %d, plain pick %d", step, got, want)
		}
		logSegs = append(logSegs, Segment{TID: int32(want), N: 1})
		picks++
		if step%97 == 0 {
			n := int(step%7) + 2
			got, want := fr.Intn(n), plain.Intn(n)
			if got != want {
				t.Fatalf("step %d: flight Intn %d, plain %d", step, got, want)
			}
			logIntns = append(logIntns, int64(want))
		}
	}
	if fr.Picks() != picks {
		t.Fatalf("Picks() = %d, want %d", fr.Picks(), picks)
	}
	if !fr.Truncated() {
		t.Fatal("10k picks through an 8-segment buffer did not truncate")
	}
	segs, log := fr.Segments(), MergeSegments(logSegs)
	if len(segs) != 8 {
		t.Fatalf("kept %d segments, want the buffer's 8", len(segs))
	}
	// The first segment to overflow truncates the recording, so every kept
	// segment, the last one included, is the run's own.
	if !reflect.DeepEqual(segs, log[:len(segs)]) {
		t.Fatalf("kept segments %+v are not the run's first %d %+v", segs, len(segs), log[:len(segs)])
	}
	if got := fr.Intns(); !reflect.DeepEqual(got, logIntns[:len(got)]) {
		t.Fatalf("kept draws %v are not the run's first %d %v", got, len(got), logIntns[:len(got)])
	}
}

// TestFlightRecorderMatchesRecorder checks that an untruncated bounded
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
		t.Fatal("recording truncated below its capacity")
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

// TestFlightRecorderKeepsPrefix drives a deterministic pick pattern
// through a tiny buffer and checks the kept segments and draws are
// exactly the oldest ones, and that every decision is still counted.
func TestFlightRecorderKeepsPrefix(t *testing.T) {
	fr := NewFlightRecorder(NewScripted([]int{1, 2, 3, 4, 5, 6, 7}, 1), 3)
	plain := NewRandom(5)
	for step := int64(0); step < 7; step++ {
		// Only the scripted thread is runnable, so each pick is a new
		// single-pick segment.
		fr.Pick([]int{1, 2, 3, 4, 5, 6, 7}, step)
	}
	want := []Segment{{TID: 1, N: 1}, {TID: 2, N: 1}, {TID: 3, N: 1}}
	if got := fr.Segments(); !reflect.DeepEqual(got, want) {
		t.Fatalf("kept %+v, want %+v", got, want)
	}
	if !fr.Truncated() || fr.Picks() != 7 {
		t.Fatalf("Truncated() = %v, Picks() = %d; want true, 7", fr.Truncated(), fr.Picks())
	}

	draws := NewFlightRecorder(NewRandom(5), 3)
	var wantIntns []int64
	for range 5 {
		draws.Intn(100)
		wantIntns = append(wantIntns, int64(plain.Intn(100)))
	}
	if got := draws.Intns(); !reflect.DeepEqual(got, wantIntns[:3]) {
		t.Fatalf("kept draws %v, want the first three of %v", got, wantIntns)
	}
	if !draws.Truncated() {
		t.Fatal("five draws through a three-draw buffer did not truncate")
	}
}

// TestFlightRecorderLastSegmentExtends pins the RLE boundary cases around
// a full buffer: a repeated pick extends the newest segment in place and
// does not truncate, and once a new segment has truncated the recording a
// pick of the last kept thread no longer extends it.
func TestFlightRecorderLastSegmentExtends(t *testing.T) {
	fr := NewFlightRecorder(NewScripted([]int{1, 2, 3, 3, 3, 4, 3}, 1), 3)
	for step := int64(0); step < 5; step++ {
		fr.Pick([]int{1, 2, 3, 4}, step)
	}
	want := []Segment{{TID: 1, N: 1}, {TID: 2, N: 1}, {TID: 3, N: 3}}
	if got := fr.Segments(); !reflect.DeepEqual(got, want) || fr.Truncated() {
		t.Fatalf("kept %+v (truncated %v), want %+v untruncated", got, fr.Truncated(), want)
	}
	for step := int64(5); step < 7; step++ {
		fr.Pick([]int{1, 2, 3, 4}, step)
	}
	if got := fr.Segments(); !reflect.DeepEqual(got, want) || !fr.Truncated() {
		t.Fatalf("after overflow kept %+v (truncated %v), want %+v truncated", got, fr.Truncated(), want)
	}
}
