package experiments

import (
	"reflect"
	"testing"
)

// withWorkers runs fn twice — once on the sequential reference engine,
// once on a 4-worker pool — and returns both results for comparison.
func withWorkers[T any](t *testing.T, fn func() T) (seq, par T) {
	t.Helper()
	prev := SetWorkers(1)
	seq = fn()
	SetWorkers(4)
	par = fn()
	SetWorkers(prev)
	return seq, par
}

// TestTable3ParallelMatchesSequential is the engine-determinism pin for
// the heaviest table: fanning the seed sweeps across workers must yield
// rows bit-for-bit identical (floats included) to the sequential path.
func TestTable3ParallelMatchesSequential(t *testing.T) {
	seq, par := withWorkers(t, func() []Table3Row { return Table3(8, 3) })
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("Table3 parallel != sequential\n seq %+v\n par %+v", seq, par)
	}
}

// TestTable3PCTParallelMatchesSequential pins the PCT recovery section
// across worker counts, and that every forced survival build recovers on
// every PCT seed.
func TestTable3PCTParallelMatchesSequential(t *testing.T) {
	seq, par := withWorkers(t, func() []PCTRecoveryRow { return Table3PCT(20) })
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("Table3PCT parallel != sequential\n seq %+v\n par %+v", seq, par)
	}
	if len(seq) != 13 {
		t.Fatalf("%d rows, want 13", len(seq))
	}
	for _, r := range seq {
		if r.Recovered != r.Runs || r.Episodes == 0 {
			t.Errorf("%s: %d/%d recovered in %d episodes", r.Name, r.Recovered, r.Runs, r.Episodes)
		}
	}
}

// TestFigure4ParallelMatchesSequential pins the Figure 4 design-space
// sweep, whose checkpoint-baseline points run one per worker.
func TestFigure4ParallelMatchesSequential(t *testing.T) {
	seq, par := withWorkers(t, func() []Figure4Row { return Figure4() })
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("Figure4 parallel != sequential\n seq %+v\n par %+v", seq, par)
	}
}

// TestAblationsParallelMatchesSequential pins the design-choice ablation
// grid (one cell per worker) against the historical nested-loop order.
func TestAblationsParallelMatchesSequential(t *testing.T) {
	seq, par := withWorkers(t, func() []AblationRow { return Ablations(3) })
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("Ablations parallel != sequential\n seq %+v\n par %+v", seq, par)
	}
}

// TestTable5ParallelMatchesSequential covers the per-bug fan-out tables
// (Table 5 reads both hardening reports and dynamic run stats).
func TestTable5ParallelMatchesSequential(t *testing.T) {
	seq, par := withWorkers(t, func() []Table5Row { return Table5() })
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("Table5 parallel != sequential\n seq %+v\n par %+v", seq, par)
	}
}
