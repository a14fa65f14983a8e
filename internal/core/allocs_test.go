package core_test

import (
	"testing"

	"conair/internal/bugs"
	"conair/internal/core"
)

// TestHardenAllocsPerSite bounds the heap allocations of hardening per
// failure site, on the largest program (MySQL1, light, survival mode):
// the analysis runs every site of a function through one context, the
// rewrite builds no maps and copies each function's name and text pools
// once, so the pipeline makes 7.5 allocations per site; the per-site CFG,
// position maps and sorts it replaced made about 39.
func TestHardenAllocsPerSite(t *testing.T) {
	if testing.Short() {
		t.Skip("hardens MySQL1 several times")
	}
	const maxAllocsPerSite = 8
	m := bugs.ByName("MySQL1").Program(bugs.Config{Light: true})
	h, err := core.Harden(m, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sites := h.Report.Census.Total()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := core.Harden(m, core.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	perSite := allocs / float64(sites)
	t.Logf("%.0f allocations for %d sites: %.1f per site", allocs, sites, perSite)
	if perSite > maxAllocsPerSite {
		t.Fatalf("hardening makes %.1f allocations per site, want at most %d", perSite, maxAllocsPerSite)
	}
}
