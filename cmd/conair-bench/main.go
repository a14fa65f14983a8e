// Command conair-bench regenerates the tables and figures of the ConAir
// evaluation (paper §5–§6) from the reconstructed benchmarks and prints
// them next to the paper's published numbers.
//
// Usage:
//
//	conair-bench -all               # everything at paper scale (1000 runs, 20 seeds)
//	conair-bench -all -quick        # fast settings (100 runs, 3 seeds)
//	conair-bench -table 3 -runs 1000
//	conair-bench -figure 4
//	conair-bench -analysis-time
//	conair-bench -all -quick -json > BENCH_0.json
//
// Seeded runs fan out across a worker pool (-workers, default GOMAXPROCS)
// with deterministic results: the same flags produce the same tables at
// any worker count. -json emits a machine-readable document with the
// sections' rows and the runs and steps that produced them, which are
// deterministic too.
//
// Measured "time" is deterministic interpreter steps; the workloads are
// scaled ~10x down from the paper's dynamic volumes (see DESIGN.md), so
// compare shapes and ratios, not absolute values.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync/atomic"

	"conair/internal/experiments"
	"conair/internal/report"
	"conair/internal/runner"
)

// emit renders a table in the selected format.
var emit = func(t *report.Table) { fmt.Println(t) }

// quick's fast settings (the historical defaults, for development loops).
const (
	quickRuns  = 100
	quickSeeds = 3
	paperRuns  = 1000
	paperSeeds = 20
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1-7)")
	figure := flag.Int("figure", 0, "regenerate one figure (2 or 4)")
	analysisTime := flag.Bool("analysis-time", false, "regenerate the §6.4 analysis-time measurements")
	ablation := flag.Bool("ablation", false, "design-choice ablation (region policy, interproc, optimization)")
	runs := flag.Int("runs", paperRuns, "forced-failure runs per mode for Table 3 (paper: 1000)")
	overheadSeeds := flag.Int("overhead-seeds", paperSeeds, "scheduler seeds overhead is averaged over (paper: 20 runs)")
	quick := flag.Bool("quick", false, fmt.Sprintf("fast settings: -runs %d -overhead-seeds %d (unless set explicitly)", quickRuns, quickSeeds))
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel-engine worker count (results are identical at any count)")
	all := flag.Bool("all", false, "regenerate everything")
	csvOut := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := flag.Bool("json", false, "emit one JSON document with table data and the runs and steps spent")
	progress := flag.Bool("progress", true, "print per-section progress (runs, runs/sec) to stderr")
	metrics := flag.Bool("metrics", false, "dump the full metrics registry to stderr after the run (and into -json output)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit (pprof format)")
	recordDir := flag.String("record", "", "write every failing run as a replayable .cnr schedule recording into this directory")
	jobTimeout := flag.Duration("job-timeout", 0, "per-run wall-clock watchdog (0 = off); wedged runs come back as hang failures")
	serveAddr := flag.String("serve", "", "serve live telemetry on this address (/metrics, /runs, /events, /healthz, /debug/pprof/) and arm the always-on flight recorder")
	serveWait := flag.Bool("serve-wait", false, "with -serve: keep the telemetry server up after the sections finish, until SIGINT")
	flightDir := flag.String("flight-dir", "conair-flight", "with -serve: directory flight recordings of failing runs are flushed into on interrupt")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}()
	}

	if *quick {
		// Explicitly-set flags win over -quick's bundle.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["runs"] {
			*runs = quickRuns
		}
		if !set["overhead-seeds"] {
			*overheadSeeds = quickSeeds
		}
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	// The bench is a short-lived batch process on a machine with ample
	// memory: trading heap headroom for fewer GC cycles is a straight win
	// (the sweep allocates heavily in hardening and module cloning).
	debug.SetGCPercent(800)
	progressOn = *progress

	// Graceful SIGINT: the first ^C drains the worker pool — jobs already
	// running finish (and flush their recordings), queued jobs are skipped,
	// partial tables still print. A second ^C kills the process normally.
	stop := &atomic.Bool{}
	interrupted := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		stop.Store(true)
		logger.Warn("interrupt: draining workers; results will be partial (^C again to kill)")
		signal.Stop(sigc)
		close(interrupted)
	}()
	defer func() {
		if stop.Load() {
			logger.Warn("interrupted; results are partial")
		}
	}()
	// Every finished run reaches the telemetry registry and -record's
	// writer through the engine's one run hook.
	engine := runner.Engine{Workers: *workers, Stop: stop, JobTimeout: *jobTimeout}
	if *serveAddr != "" {
		startTelemetry(*serveAddr)
		defer finishTelemetry(*serveWait, *flightDir, interrupted, stop)
		engine.RunHook, engine.FlightLimit = telemetry.Hook(), runner.DefaultFlightLimit
	}
	if *recordDir != "" {
		// A deliberate capture keeps whole schedules: it never truncates.
		engine.RunHook, engine.FlightLimit = recordHook(*recordDir, engine.RunHook), math.MaxInt
		defer func() {
			// The workers write synchronously, so by the time the sections
			// return (or the drain completes) every recording is on disk.
			written := experiments.Registry().Counter("replay_recordings_written_total").Value()
			logger.Info("schedule recordings written", "count", written, "dir", *recordDir)
		}()
	}
	experiments.SetEngine(engine)
	// The header records the effective worker count (the -json config block
	// captures the same value), so BENCH_*.json snapshots are attributable.
	logger.Info("start", "workers", *workers,
		"gomaxprocs", runtime.GOMAXPROCS(0), "go", runtime.Version())
	if *csvOut {
		emit = func(t *report.Table) { fmt.Print(t.CSV()) }
	}

	sel := selection{
		table:        *table,
		figure:       *figure,
		analysisTime: *analysisTime,
		ablation:     *ablation,
		all:          *all,
		runs:         *runs,
		seeds:        *overheadSeeds,
		workers:      *workers,
		quick:        *quick,
		metrics:      *metrics,
	}
	if *jsonOut {
		if !runJSON(os.Stdout, sel) {
			usageExit()
		}
		if *metrics {
			dumpMetrics()
		}
		return
	}

	ran := false
	for _, sec := range sections {
		if sec.want(sel) {
			track(sec.name, func() { sec.print(sel) })
			ran = true
		}
	}
	if !ran {
		usageExit()
	}
	if *metrics {
		dumpMetrics()
	}
}

// selection is which sections to regenerate, and at what scale.
type selection struct {
	table, figure          int
	analysisTime, ablation bool
	all                    bool
	runs, seeds            int
	workers                int
	quick                  bool
	metrics                bool
}

func (s selection) want(t int) bool       { return s.all || s.table == t }
func (s selection) wantFigure(f int) bool { return s.all || s.figure == f }
func (s selection) anySelected() bool {
	return s.all || s.table != 0 || s.figure != 0 || s.analysisTime || s.ablation
}

// section is one regenerable part of the evaluation, shared by both
// output modes: table mode prints every wanted section in list order, and
// -json stores the rows of each wanted section under its name, which is
// also its progress name.
type section struct {
	name  string
	want  func(selection) bool
	rows  func(selection) any // nil for Table 1, which has no data rows
	print func(selection)
}

// rowsOf builds a section from its row producer and its text renderer.
func rowsOf[T any](name string, want func(selection) bool, rows func(selection) T, render func(selection, T)) section {
	return section{
		name:  name,
		want:  want,
		rows:  func(s selection) any { return rows(s) },
		print: func(s selection) { render(s, rows(s)) },
	}
}

// fixed adapts a row producer that takes no settings.
func fixed[T any](rows func() T) func(selection) T {
	return func(selection) T { return rows() }
}

func table(t int) func(selection) bool  { return func(s selection) bool { return s.want(t) } }
func figure(f int) func(selection) bool { return func(s selection) bool { return s.wantFigure(f) } }

// sections lists every section in output order.
var sections = []section{
	{name: "table1", want: table(1), print: func(selection) { printTable1() }},
	rowsOf("table2", table(2), fixed(experiments.Table2), printTable2),
	rowsOf("table3", table(3), func(s selection) []experiments.Table3Row {
		return experiments.Table3(s.runs, s.seeds)
	}, printTable3),
	rowsOf("table3corpus", table(3), func(s selection) []experiments.CorpusRow {
		return experiments.Table3Corpus(s.runs)
	}, printTable3Corpus),
	rowsOf("table3pct", table(3), func(s selection) []experiments.PCTRecoveryRow {
		return experiments.Table3PCT(s.runs)
	}, printTable3PCT),
	rowsOf("table4", table(4), fixed(experiments.Table4), printTable4),
	rowsOf("table5", table(5), fixed(experiments.Table5), printTable5),
	rowsOf("table6", table(6), fixed(experiments.Table6), printTable6),
	rowsOf("table7", table(7), fixed(experiments.Table7), printTable7),
	rowsOf("figure2", figure(2), fixed(experiments.Figure2), printFigure2),
	rowsOf("figure4", figure(4), fixed(experiments.Figure4), printFigure4),
	rowsOf("analysisTimes", func(s selection) bool { return s.all || s.analysisTime }, fixed(experiments.AnalysisTimes), printAnalysisTimes),
	rowsOf("ablation", func(s selection) bool { return s.all || s.ablation }, func(s selection) []experiments.AblationRow {
		return experiments.Ablations(min(s.runs, 10))
	}, printAblations),
}

func usageExit() {
	fmt.Fprintln(os.Stderr, "nothing selected; use -all, -table N, -figure N or -analysis-time")
	flag.PrintDefaults()
	os.Exit(2)
}

// printTable1 renders the paper's qualitative technique comparison. The
// rollback-recovery column describes the traditional whole-program
// systems (Rx/ASSURE/Frost); this repository's internal/baseline package
// implements that family so Figure 4 can quantify the row.
func printTable1() {
	t := report.NewTable("Table 1: Concurrency-bug fixing and survival techniques (qualitative)",
		"Property", "Auto. fixing", "Prohibiting interleaving", "Rollback recovery", "ConAir")
	t.Row("Compatibility", "yes", "partial", "partial", "yes")
	t.Row("Correctness", "yes", "yes", "yes", "yes")
	t.Row("Generality", "no", "partial", "yes", "yes")
	t.Row("Performance", "yes", "partial", "partial", "yes")
	emit(t)
	fmt.Println("('partial' marks the paper's *: the properties cannot all hold at once.)")
	fmt.Println()
}

func printTable2(_ selection, rows []experiments.Table2Row) {
	t := report.NewTable("Table 2: Applications and Bugs",
		"App", "Type", "Paper LOC", "MIR instrs", "Failure", "Cause")
	for _, r := range rows {
		t.Row(r.Name, r.AppType, r.PaperLOC, r.MIRInstrs, r.Failure, r.Cause)
	}
	emit(t)
}

func printTable3(s selection, rows []experiments.Table3Row) {
	t := report.NewTable(
		fmt.Sprintf("Table 3: Overall bug recovery results (%d forced runs/mode; overhead averaged over %d seeds; * = needs output oracle)", s.runs, s.seeds),
		"App", "Recovered(fix)", "Recovered(survival)", "Overhead fix", "Overhead survival", "Paper survival", "Sanitizer")
	for _, r := range rows {
		t.Row(r.Name,
			report.Check(r.RecoveredFix, r.Conditional),
			report.Check(r.RecoveredSurvival, r.Conditional),
			fmt.Sprintf("%.3f%%", r.OverheadFixPct),
			fmt.Sprintf("%.3f%%", r.OverheadSurvivalPct),
			fmt.Sprintf("%.1f%%", r.PaperOverheadPct),
			report.VerdictCell(r.Sanitizer))
	}
	emit(t)
}

func printTable3Corpus(s selection, rows []experiments.CorpusRow) {
	c := report.NewTable(
		fmt.Sprintf("Table 3 (corpus): labelled real-bug models (%d forced runs/mode; fixed twin = modelled upstream fix)", s.runs),
		"Model", "Cause", "Symptom", "Recovered(fix)", "Recovered(survival)", "Fixed twin clean", "Sanitizer")
	for _, r := range rows {
		c.Row(r.Name, r.RootCause, r.Symptom,
			report.Check(r.RecoveredFix, false),
			report.Check(r.RecoveredSurvival, false),
			report.Check(r.FixedTwinClean, false),
			report.VerdictCell(r.Sanitizer))
	}
	emit(c)
}

func printTable3PCT(s selection, rows []experiments.PCTRecoveryRow) {
	t := report.NewTable(
		fmt.Sprintf("Table 3 (PCT): survival recovery under strict-priority schedules (%d PCT seeds, d=3; a rollback yields)", s.runs),
		"App", "Recovered", "Episodes", "Rollbacks", "Rollbacks/episode")
	for _, r := range rows {
		t.Row(r.Name,
			fmt.Sprintf("%d/%d", r.Recovered, r.Runs),
			r.Episodes, r.Rollbacks,
			fmt.Sprintf("%.1f", r.RollbacksPerEpisode))
	}
	emit(t)
}

func printTable4(_ selection, rows []experiments.Table4Row) {
	t := report.NewTable("Table 4: Static failure sites hardened by ConAir (measured | paper)",
		"App", "Assert", "WrongOutput", "SegFault", "Deadlock", "Total")
	for _, r := range rows {
		p := r.Paper
		t.Row(r.Name,
			fmt.Sprintf("%d | %d", r.Assert, p.Assert),
			fmt.Sprintf("%d | %d", r.WrongOutput, p.WrongOutput),
			fmt.Sprintf("%d | %d", r.Segfault, p.Segfault),
			fmt.Sprintf("%d | %d", r.Deadlock, p.Deadlock),
			fmt.Sprintf("%d | %d", r.Total, p.Total()))
	}
	emit(t)
}

func printTable5(_ selection, rows []experiments.Table5Row) {
	t := report.NewTable("Table 5: Reexecution points (survival static/dynamic, fix static/dynamic; paper survival for reference)",
		"App", "Surv static", "Surv dynamic", "Fix static", "Fix dynamic", "Paper static", "Paper dynamic")
	for _, r := range rows {
		t.Row(r.Name, r.SurvivalStatic, r.SurvivalDynamic, r.FixStatic, r.FixDynamic,
			r.PaperStatic, r.PaperDynamic)
	}
	emit(t)
}

func printTable6(_ selection, rows []experiments.Table6Row) {
	t := report.NewTable("Table 6: Reexecution points removed by the optimization (§4.2)",
		"App", "Non-deadlock static", "Non-deadlock dynamic", "Deadlock static", "Deadlock dynamic")
	pct := func(v float64) string {
		if v < 0 {
			return "N/A"
		}
		return fmt.Sprintf("%.1f%%", v)
	}
	for _, r := range rows {
		t.Row(r.Name, pct(r.NonDeadlockStaticPct), pct(r.NonDeadlockDynamicPct),
			pct(r.DeadlockStaticPct), pct(r.DeadlockDynamicPct))
	}
	emit(t)
}

func printTable7(_ selection, rows []experiments.Table7Row) {
	t := report.NewTable("Table 7: Failure recovery vs whole-program restart (interpreter steps)",
		"App", "Recovery steps", "Retries", "Restart steps", "Speedup",
		"Paper recovery(us)", "Paper retries", "Paper restart(us)")
	for _, r := range rows {
		t.Row(r.Name, r.RecoverySteps, r.Retries, r.RestartSteps,
			fmt.Sprintf("%.0fx", r.Speedup),
			r.PaperRecoveryMicros, r.PaperRetries, r.PaperRestartMicros)
	}
	emit(t)
}

func printFigure2(_ selection, rows []experiments.Figure2Row) {
	t := report.NewTable("Figure 2: Atomicity-violation patterns and single-threaded idempotent recovery",
		"Pattern", "Fails unprotected", "ConAir recovers", "Paper taxonomy", "Full-checkpoint recovers")
	for _, r := range rows {
		t.Row(r.Pattern, r.FailsUnprotected, r.ConAirRecovered,
			r.PaperSaysRecoverable, r.CheckpointRecovered)
	}
	emit(t)
}

func printFigure4(_ selection, rows []experiments.Figure4Row) {
	t := report.NewTable("Figure 4: Reexecution-region design-space trade-off (ZSNES)",
		"Design", "Overhead", "Recovery steps", "Recovered")
	for _, r := range rows {
		t.Row(r.Design, fmt.Sprintf("%.3f%%", r.OverheadPct), r.RecoverySteps, r.Recovered)
	}
	emit(t)
}

func printAblations(_ selection, rows []experiments.AblationRow) {
	t := report.NewTable("Design-choice ablation (forced-failure recovery; overhead on clean runs)",
		"Configuration", "App", "Recovered", "Static points", "Overhead")
	for _, r := range rows {
		t.Row(r.Config, r.App, r.Recovered, r.StaticPoints, fmt.Sprintf("%.3f%%", r.OverheadPct))
	}
	emit(t)
}

func printAnalysisTimes(_ selection, rows []experiments.AnalysisTimeRow) {
	t := report.NewTable("Static analysis time (§6.4)",
		"App", "Intra-only", "Full (with interproc)", "Transform")
	for _, r := range rows {
		t.Row(r.Name, r.Intra.String(), r.Full.String(), r.Transform.String())
	}
	emit(t)
}
