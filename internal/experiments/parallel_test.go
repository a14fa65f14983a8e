package experiments

import (
	"reflect"
	"testing"

	"conair/internal/bugs"
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

// countedSections are the sections whose searches stop at a first hit:
// Figure 2's recovery verdicts, the corpus's AllComplete sweeps and the
// sanitizer verdicts of the 13 programs.
type countedSections struct {
	Figure2  []Figure2Row
	Corpus   []CorpusRow
	Verdicts []string
	// Runs and Steps are the interpreter runs and steps the sections made.
	Runs, Steps int64
}

func runCountedSections() countedSections {
	runs0 := Registry().Counter("interp_runs_total").Value()
	steps0 := Registry().Counter("interp_steps_total").Value()
	var s countedSections
	s.Figure2 = Figure2()
	s.Corpus = Table3Corpus(10)
	for _, b := range append(bugs.All(), bugs.Corpus()...) {
		s.Verdicts = append(s.Verdicts, SanitizerVerdict(b, sanitizeBudget))
	}
	s.Runs = Registry().Counter("interp_runs_total").Value() - runs0
	s.Steps = Registry().Counter("interp_steps_total").Value() - steps0
	return s
}

// TestCountsWorkerInvariant: a first-hit search walks its seeds in order
// and stops at the hit, so the sections it feeds, and the runs and steps
// it spends reaching them, are the same at any pool size. Figure 2's RAW
// and WAR patterns make the check sharp: each of their hardened runs
// spins to the retry bound, so one speculative seed adds about 124 M steps.
func TestCountsWorkerInvariant(t *testing.T) {
	seq, par := withWorkers(t, runCountedSections)
	if len(seq.Verdicts) != 13 {
		t.Fatalf("%d verdicts, want 13", len(seq.Verdicts))
	}
	if !reflect.DeepEqual(seq.Figure2, par.Figure2) {
		t.Errorf("Figure2 at 4 workers != 1 worker\n seq %+v\n par %+v", seq.Figure2, par.Figure2)
	}
	if !reflect.DeepEqual(seq.Corpus, par.Corpus) {
		t.Errorf("Table3Corpus at 4 workers != 1 worker\n seq %+v\n par %+v", seq.Corpus, par.Corpus)
	}
	if !reflect.DeepEqual(seq.Verdicts, par.Verdicts) {
		t.Errorf("sanitizer verdicts at 4 workers %v, at 1 worker %v", par.Verdicts, seq.Verdicts)
	}
	if seq.Runs != par.Runs || seq.Steps != par.Steps {
		t.Errorf("4 workers made %d runs and %d steps, 1 worker %d runs and %d steps",
			par.Runs, par.Steps, seq.Runs, seq.Steps)
	}
}
