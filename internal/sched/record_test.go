package sched

import (
	"math"
	"reflect"
	"testing"
)

// TestRecorderTransparent pins the recording contract of the unbounded
// flight recorder replay.Record captures with: the wrapped scheduler
// returns exactly the decisions the unwrapped scheduler would, for both
// Pick and Intn, and the stream it keeps is complete and run-length
// maximal.
func TestRecorderTransparent(t *testing.T) {
	plain := NewRandom(42)
	rec := NewFlightRecorder(NewRandom(42), math.MaxInt)

	runnable := [][]int{
		{0}, {0, 1}, {0, 1, 2}, {1, 2}, {0, 2, 5, 9}, {3}, {0, 1, 2, 3, 4},
	}
	var picks int64
	for step := int64(0); step < 10_000; step++ {
		r := runnable[int(step)%len(runnable)]
		want := plain.Pick(r, step)
		got := rec.Pick(r, step)
		if got != want {
			t.Fatalf("step %d: wrapped pick %d, plain pick %d", step, got, want)
		}
		picks++
		if step%97 == 0 {
			n := int(step%7) + 2
			if got, want := rec.Intn(n), plain.Intn(n); got != want {
				t.Fatalf("step %d: wrapped Intn %d, plain %d", step, got, want)
			}
		}
	}
	if rec.Picks() != picks {
		t.Fatalf("Picks() = %d, want %d", rec.Picks(), picks)
	}
	if rec.Truncated() {
		t.Fatal("unbounded recorder truncated")
	}
	var total int64
	for _, s := range rec.Segments() {
		if s.N <= 0 {
			t.Fatalf("segment with non-positive length: %+v", s)
		}
		total += s.N
	}
	if total != picks {
		t.Fatalf("segment lengths sum to %d, want %d picks", total, picks)
	}
	for i := 1; i < len(rec.Segments()); i++ {
		if rec.Segments()[i].TID == rec.Segments()[i-1].TID {
			t.Fatalf("adjacent segments %d and %d share tid %d (not run-length-maximal)",
				i-1, i, rec.Segments()[i].TID)
		}
	}
}

// TestSegmentReplayFaithful replays a recorded stream against the same
// pick sequence and checks every decision matches with zero divergences.
func TestSegmentReplayFaithful(t *testing.T) {
	rec := NewFlightRecorder(NewRandom(7), math.MaxInt)
	runnable := [][]int{{0, 1, 2}, {0, 2}, {1, 2, 3}, {2}}
	var picks []int
	var draws []int
	for step := int64(0); step < 5_000; step++ {
		r := runnable[int(step)%len(runnable)]
		picks = append(picks, rec.Pick(r, step))
		if step%13 == 0 {
			draws = append(draws, rec.Intn(5))
		}
	}

	rep := NewSegmentReplay(rec.Segments(), rec.Intns())
	di := 0
	for step := int64(0); step < 5_000; step++ {
		r := runnable[int(step)%len(runnable)]
		if got := rep.Pick(r, step); got != picks[step] {
			t.Fatalf("step %d: replay pick %d, recorded %d", step, got, picks[step])
		}
		if step%13 == 0 {
			if got := rep.Intn(5); got != draws[di] {
				t.Fatalf("step %d: replay Intn %d, recorded %d", step, got, draws[di])
			}
			di++
		}
	}
	if rep.Diverged() != 0 {
		t.Fatalf("faithful replay diverged %d times", rep.Diverged())
	}
	if !rep.Exhausted() {
		t.Fatal("replay did not consume the whole stream")
	}
	if rep.TailPicks() != 0 {
		t.Fatalf("faithful replay made %d tail picks", rep.TailPicks())
	}
}

// TestSegmentReplayTolerant exercises the edited-stream paths: skipped
// segments when the recorded thread is not runnable, lowest-id fallback
// after exhaustion, and deterministic Intn reduction.
func TestSegmentReplayTolerant(t *testing.T) {
	segs := []Segment{{TID: 5, N: 2}, {TID: 1, N: 1}}
	rep := NewSegmentReplay(segs, []int64{9})

	// Thread 5 is never runnable: its segment is abandoned, thread 1's
	// segment replays, then fallback returns the lowest runnable id.
	if got := rep.Pick([]int{0, 1, 2}, 0); got != 1 {
		t.Fatalf("pick = %d, want 1 (skip unrunnable segment)", got)
	}
	if got := rep.Pick([]int{0, 2}, 1); got != 0 {
		t.Fatalf("pick = %d, want 0 (exhausted fallback)", got)
	}
	if rep.Diverged() != 1 {
		t.Fatalf("diverged = %d, want 1", rep.Diverged())
	}
	if rep.TailPicks() != 1 {
		t.Fatalf("tailPicks = %d, want 1", rep.TailPicks())
	}
	// Recorded draw 9 is out of range for n=4: reduced deterministically.
	if got := rep.Intn(4); got != 1 {
		t.Fatalf("Intn(4) = %d, want 1 (9 mod 4)", got)
	}
	// Exhausted draws return 0.
	if got := rep.Intn(4); got != 0 {
		t.Fatalf("tail Intn(4) = %d, want 0", got)
	}
}

func TestMergeSegments(t *testing.T) {
	in := []Segment{{1, 2}, {1, 3}, {0, 0}, {2, 1}, {2, 4}, {1, 1}}
	want := []Segment{{1, 5}, {2, 5}, {1, 1}}
	if got := MergeSegments(in); !reflect.DeepEqual(got, want) {
		t.Fatalf("MergeSegments = %+v, want %+v", got, want)
	}
	if got := Switches(want); got != 2 {
		t.Fatalf("Switches = %d, want 2", got)
	}
	if got := Switches(nil); got != 0 {
		t.Fatalf("Switches(nil) = %d, want 0", got)
	}
}
