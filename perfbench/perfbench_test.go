package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// deterministic names the per-layer metrics that are pure unit counts:
// they must repeat exactly for a seed, at any worker count.
var deterministic = []string{
	"analysis.sites", "analysis.pruned_sites", "analysis.interproc_sites", "analysis.checkpoints_planted",
	"transform.ir_growth_pct",
	"interp.virtual_steps", "interp.checkpoints", "interp.rollbacks", "interp.compensations",
	"interp.episode_retries_p99", "interp.recovered_episode_ratio",
	"sanitizer.seeds_run", "sanitizer.accesses", "sanitizer.fastpath_ratio", "sanitizer.vc_joins",
	"replay.encode_bytes", "replay.minimize_probes", "sched.picks", "sched.switch_reduction",
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// runTiny runs one workload at smoke-test sizes and returns its result.
func runTiny(t *testing.T, workload string, workers int, trace bool) *result {
	t.Helper()
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "0.5",
		"--workers", strconv.Itoa(workers), "--tiny", "--trace", "0"}
	if trace {
		args[len(args)-1] = "1"
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s: exit %d: %s", workload, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var keys map[string]json.RawMessage
	last := []byte(lines[len(lines)-1])
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Fatalf("%s: result keys %v, want correct, attempted, failed, metrics", workload, keys)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d:\n%s", workload, res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	return &res
}

// checkMetrics checks that the result carries exactly the spec's metrics,
// each with its unit and a valid name.
func checkMetrics(t *testing.T, workload string, res *result, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("%s: %s has unit %q, want %q", workload, name, m.Unit, unit)
		}
	}
	for name, m := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", workload, name)
		}
		if !nameRE.MatchString(name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: invalid metric name or unit %q %q", workload, name, m.Unit)
		}
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced at one
// worker and at GOMAXPROCS workers: every metric is emitted with its unit,
// no operation fails, and the unit counts are the same at both worker
// counts and across repeated runs of the same seed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	t.Chdir(t.TempDir()) // traced runs write spans under the working directory
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, d := range deterministic {
		if _, ok := layer[d]; !ok {
			t.Errorf("deterministic metric %s is not a per-layer metric", d)
		}
	}
	workers := max(2, runtime.GOMAXPROCS(0))
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			checkMetrics(t, w.Name, runTiny(t, w.Name, workers, false), e2e)
			var first *result
			for _, n := range []int{1, workers, 1} {
				res := runTiny(t, w.Name, n, true)
				checkMetrics(t, w.Name, res, layer)
				if first == nil {
					first = res
					continue
				}
				for _, d := range deterministic {
					if got, want := res.Metrics[d].Value, first.Metrics[d].Value; got != want {
						t.Errorf("%s at %d workers: %s = %v, want %v as at 1 worker", w.Name, n, d, got, want)
					}
				}
			}
		})
	}
}

// TestOracleTable5 pins the Table 5 oracle to the checked-in BENCH_4.json.
func TestOracleTable5(t *testing.T) {
	data, err := os.ReadFile("../BENCH_4.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Sections struct {
			Table5 []struct {
				Name                        string
				SurvivalDynamic, FixDynamic int64
			} `json:"table5"`
		} `json:"sections"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var o oracleData
	if err := json.Unmarshal(oracleJSON, &o); err != nil {
		t.Fatal(err)
	}
	if len(bench.Sections.Table5) != len(o.Table5) {
		t.Fatalf("BENCH_4.json has %d table5 rows, oracle.json %d", len(bench.Sections.Table5), len(o.Table5))
	}
	for _, row := range bench.Sections.Table5 {
		got, ok := o.Table5[row.Name]
		if !ok || got.Survival != row.SurvivalDynamic || got.Fix != row.FixDynamic {
			t.Errorf("%s: oracle %+v, BENCH_4.json survival %d fix %d", row.Name, got, row.SurvivalDynamic, row.FixDynamic)
		}
	}
}

// TestUsage checks that bad arguments exit 2 without a result line.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "recovery", "--trace", "2"},
		{"--workload", "recovery", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", args, code, stdout.String())
		}
	}
}
