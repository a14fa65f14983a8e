package experiments

import (
	"conair/internal/interp"
	"conair/internal/obs"
	"conair/internal/replay"
)

// reg is the process-wide metrics registry every experiment sweep reports
// into: the engine contributes batch/job/queue-depth/worker-utilization
// metrics, the interpreter per-run aggregates (runs, steps, rollbacks per
// site, episode histograms). conair-bench's per-section progress lines
// and its -metrics exposition read from here.
var reg = obs.NewRegistry()

func init() {
	eng.Reg = reg
	interp.SetMetricsRegistry(reg)
	replay.SetMetricsRegistry(reg)
	// Pre-describe the sanitizer performance counters so a -metrics dump
	// (or a scrape of the serve endpoint backed by this registry) is
	// self-documenting the first time they appear.
	for name, help := range map[string]string{
		"sanitizer_fastpath_hits_total": "accesses resolved on the owned-cell epoch fast path (no foreign clock entry consulted)",
		"sanitizer_vc_joins_total":      "full vector-clock join operations (spawn/join edges plus release-clock acquisitions)",
	} {
		reg.SetHelp(name, help)
	}
}

// Registry exposes the experiment metrics registry.
func Registry() *obs.Registry { return reg }
