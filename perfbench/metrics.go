package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"conair/internal/experiments"
	"conair/internal/interp"
	"conair/internal/obs"
	"conair/internal/runner"
)

// endToEnd computes the metrics a user of the system sees. Hardening on
// recovery and detect happens only in set-up, so there the harden
// metrics describe the set-up's harden operations.
func (b *bench) endToEnd(m *measurement) map[string]metric {
	hs := m.harden
	if hs.count() == 0 {
		hs = m.setupHarden
	}
	return map[string]metric{
		"setup_s":                 {median(m.setupTimes), "s"},
		"peak_rss_mb":             {peakRSSMB(), "MB"},
		"recovery_runs_per_s":     {m.forced.perSecond(), "1/s"},
		"recovery_run_geomean_us": {m.forced.geomeanOfMedians() * 1e6, "us"},
		"recovery_run_p99_us":     {m.forced.quantile(0.99) * 1e6, "us"},
		"clean_run_geomean_ms":    {m.clean.geomeanOfMedians() * 1e3, "ms"},
		"harden_modules_per_s":    {hs.perSecond(), "1/s"},
		"harden_geomean_ms":       {hs.geomeanOfMedians() * 1e3, "ms"},
		"harden_p99_ms":           {hs.quantile(0.99) * 1e3, "ms"},
		"verdict_geomean_ms":      {m.verdicts.geomeanOfMedians() * 1e3, "ms"},
		"verdict_p90_ms":          {m.verdicts.quantile(0.9) * 1e3, "ms"},
		"triage_geomean_ms":       {m.triages.geomeanOfMedians() * 1e3, "ms"},
		"detect_targets_per_s":    {m.verdicts.perSecond(), "1/s"},
	}
}

// layers are the modules the self-time breakdown reports; bench is the
// benchmark's own work around the calls (oracle checks, dispatch).
var layers = []string{"bench", "bugs", "mirgen", "mir", "analysis", "transform", "core", "interp", "runner", "sanitizer", "replay", "obs"}

type layerInputs struct {
	m    *measurement
	sum  summary
	prof *profile
	// cancelled, busy (ns) and jobs are engine counter deltas over the
	// traced measurement.
	cancelled, busy, jobs int64
	// overhead is the tracing overhead on the workload's headline metric.
	overhead float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes the per-layer metrics of a traced run. Unit counts
// sum the first set-up and the first pass of every phase; times are per
// call, from the spans.
func (b *bench) perLayer(in layerInputs) map[string]metric {
	c := in.m.counts
	retries := in.m.retries
	calls := in.sum.Calls
	f := func(i count) float64 { return float64(c[i]) }

	var runBusy time.Duration
	var runSteps int64
	for _, name := range []string{"interp.RunJob", "interp.RunModule", "obs.FlightRun"} {
		runBusy += calls[name].Total
		runSteps += calls[name].Work
	}
	w := float64(b.opt.workers)
	capacity := w * (calls["runner.Map"].Total + calls["sanitizer.SanitizeSearch"].Total).Seconds()
	busy := float64(in.busy) / 1e9
	parse := calls["mir.Parse"]

	out := map[string]metric{
		"mir.parse_ms":                   {parse.meanMs(), "ms"},
		"mir.print_ms":                   {calls["mir.Print"].meanMs(), "ms"},
		"mir.parse_instrs_per_s":         {ratio(float64(parse.Work), parse.Total.Seconds()), "1/s"},
		"analysis.analyze_ms":            {calls["analysis.Analyze"].meanMs(), "ms"},
		"analysis.sites":                 {f(cSites), "count"},
		"analysis.pruned_sites":          {f(cPrunedSites), "count"},
		"analysis.interproc_sites":       {f(cInterprocSites), "count"},
		"analysis.checkpoints_planted":   {f(cCheckpointsPlanted), "count"},
		"transform.apply_ms":             {calls["transform.Apply"].meanMs(), "ms"},
		"transform.ir_growth_pct":        {100 * (ratio(f(cHardenedInstrs), f(cParsedInstrs)) - 1), "%"},
		"core.verify_self_ms":            {calls["core.Harden"].meanSelfMs(), "ms"},
		"interp.compile_ms":              {calls["interp.Compile"].meanMs(), "ms"},
		"interp.run_busy_s":              {runBusy.Seconds(), "s"},
		"interp.steps_per_busy_s":        {ratio(float64(runSteps), runBusy.Seconds()), "1/s"},
		"interp.virtual_steps":           {f(cSteps), "count"},
		"interp.checkpoints":             {f(cCheckpoints), "count"},
		"interp.rollbacks":               {f(cRollbacks), "count"},
		"interp.compensations":           {f(cCompensations), "count"},
		"interp.episode_retries_p99":     {quantileInt(retries, 0.99), "count"},
		"interp.recovered_episode_ratio": {ratio(f(cRecoveredEpisodes), f(cEpisodes)), "ratio"},
		"runner.jobs":                    {float64(in.jobs), "count"},
		"runner.busy_s":                  {busy, "s"},
		"runner.utilization":             {ratio(busy, capacity), "ratio"},
		"runner.idle_s":                  {capacity - busy, "s"},
		"sanitizer.search_ms":            {calls["sanitizer.SanitizeSearch"].meanMs(), "ms"},
		"sanitizer.seeds_run":            {f(cSeedsRun), "count"},
		"sanitizer.seeds_cancelled":      {float64(in.cancelled), "count"},
		"sanitizer.accesses":             {float64(in.prof.accesses), "count"},
		"sanitizer.fastpath_ratio":       {ratio(float64(in.prof.fastHits), float64(in.prof.accesses)), "ratio"},
		"sanitizer.vc_joins":             {float64(in.prof.vcJoins), "count"},
		"sanitizer.hook_overhead_pct":    {100 * (ratio(in.prof.sanitized.Seconds(), in.prof.plain.Seconds()) - 1), "%"},
		"replay.encode_ms":               {calls["replay.Encode"].meanMs(), "ms"},
		"replay.encode_bytes":            {f(cEncodeBytes), "bytes"},
		"replay.decode_ms":               {calls["replay.Decode"].meanMs(), "ms"},
		"replay.verify_ms":               {calls["replay.Verify"].meanMs(), "ms"},
		"replay.minimize_ms":             {calls["replay.Minimize"].meanMs(), "ms"},
		"replay.minimize_probes":         {f(cProbes), "count"},
		"sched.picks":                    {f(cPicks), "count"},
		"sched.switch_reduction":         {1 - ratio(f(cSwitchesAfter), f(cSwitchesBefore)), "ratio"},
		"obs.flight_overhead_pct":        {100 * (ratio(in.prof.flight.Seconds(), in.prof.noFlight.Seconds()) - 1), "%"},
		"trace.overhead_pct":             {in.overhead, "%"},
	}
	for _, l := range layers {
		out["self."+l+"_pct"] = metric{100 * ratio(in.sum.LayerSelf[l].Seconds(), in.sum.TotalSelf.Seconds()), "%"}
	}
	return out
}

// profile holds the traced run's paired measurements: each search
// winner's sanitized run against its plain run, and the workload's forced
// runs with the flight ring armed against not armed.
type profile struct {
	accesses, fastHits, vcJoins int64
	sanitized, plain            time.Duration
	flight, noFlight            time.Duration
	attempted                   int
	failures                    []string
}

const profileReps = 3

func (b *bench) profile(pl *plan, winners []winner) *profile {
	pr := &profile{}
	for _, w := range winners {
		var sanT, plainT []float64
		for rep := range profileReps {
			start := time.Now()
			interp.RunModule(w.t.search, pctConfig(w.seed, w.t.maxSteps))
			plainT = append(plainT, time.Since(start).Seconds())
			start = time.Now()
			san, _ := experiments.SanitizeRun(w.t.search, pctConfig(w.seed, w.t.maxSteps))
			sanT = append(sanT, time.Since(start).Seconds())
			if rep == 0 {
				pr.accesses += san.Accesses()
				pr.fastHits += san.FastPathHits()
				pr.vcJoins += san.VCJoins()
				pr.attempted++
				if err := w.t.truth.check(san.Reports()); err != nil {
					pr.failures = append(pr.failures, fmt.Sprintf("%s: winning seed %d re-run: %v", w.t.key, w.seed, err))
				}
			}
		}
		pr.sanitized += time.Duration(median(sanT) * 1e9)
		pr.plain += time.Duration(median(plainT) * 1e9)
	}

	plain := runner.Engine{Workers: b.opt.workers}
	flight := runner.Engine{Workers: b.opt.workers, FlightLimit: runner.DefaultFlightLimit}
	// One discarded flight batch fills the artifact cache (module text and
	// hash) the armed runs would otherwise pay for once.
	b.runBatch(flight, pl.forced, -1, newSeries())
	for range profileReps {
		for _, armed := range []bool{false, true} {
			eng, d := plain, &pr.noFlight
			if armed {
				eng, d = flight, &pr.flight
			}
			collectBetweenPasses()
			start := time.Now()
			p := b.runBatch(eng, pl.forced, -1, newSeries())
			*d += time.Since(start)
			pr.attempted += p.attempted
			pr.failures = append(pr.failures, p.failures...)
		}
	}
	return pr
}

// engineTotals sums a registry's engine worker busy time (ns) and jobs.
func engineTotals(reg *obs.Registry) (busy, jobs int64) {
	if reg == nil {
		return 0, 0
	}
	for k, v := range reg.Snapshot() {
		switch {
		case strings.HasPrefix(k, "engine_worker_") && strings.HasSuffix(k, "_busy_ns_total"):
			busy += v
		case k == "engine_jobs_total":
			jobs += v
		}
	}
	return busy, jobs
}

// peakRSSMB is the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// writeTrace writes the traced run's spans and summaries under
// .bench_build/trace/ in the working directory.
func writeTrace(opt options, env map[string]any, rep *runReport) (string, error) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", opt.workload, opt.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	doc := map[string]any{"env": env, "summary": rep.trace, "spans": rep.spans}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
