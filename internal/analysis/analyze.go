package analysis

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"conair/internal/mir"
)

// Mode selects how failure sites are identified (paper §3.1).
type Mode uint8

// Modes.
const (
	// Survival hardens every statically identified potential failure site.
	Survival Mode = iota
	// Fix hardens exactly one developer-named failure site.
	Fix
)

// String names the mode.
func (m Mode) String() string {
	if m == Fix {
		return "fix"
	}
	return "survival"
}

// Options configures an analysis run.
type Options struct {
	Mode Mode
	// FixSite is the failing statement's position (Fix mode only).
	FixSite mir.Pos
	// Policy selects the basic (§3.2) or extended (§4.1) region rules.
	// The default is PolicyExtended, the paper's evaluated configuration.
	Policy mir.RegionPolicy
	// Optimize enables the §4.2 pruning of unrecoverable sites
	// (default on; Table 6 measures its effect by toggling it).
	Optimize bool
	// Interproc enables §4.3 inter-procedural recovery (default on; the
	// paper notes it dominates analysis time and can be disabled).
	Interproc bool
	// InterprocDepth bounds caller levels (default 3).
	InterprocDepth int
	// PruneSafeSites skips segmentation-fault sites whose dereference is
	// statically proven valid (the §3.4 extension); they then carry no
	// guard and no reexecution point. Off by default, matching the
	// evaluated prototype.
	PruneSafeSites bool
}

// DefaultOptions returns the paper's evaluated configuration.
func DefaultOptions() Options {
	return Options{
		Mode:           Survival,
		Policy:         mir.PolicyExtended,
		Optimize:       true,
		Interproc:      true,
		InterprocDepth: DefaultInterprocDepth,
	}
}

// SiteAnalysis bundles everything the analyses concluded about one site.
type SiteAnalysis struct {
	Site      Site
	Region    Region
	Slice     Slice
	Verdict   PruneVerdict
	Interproc InterprocResult
	// Points are the site's final reexecution points after the
	// inter-procedural adjustment; they may live in caller functions.
	Points []mir.Pos
}

// Recovers reports whether recovery code is planted for this site.
func (sa *SiteAnalysis) Recovers() bool {
	return sa.Site.Recoverable() && !sa.Verdict.Pruned()
}

// Checkpoint describes one planted reexecution point.
type Checkpoint struct {
	// ID is assigned densely from 1 in position order.
	ID  int
	Pos mir.Pos
	// ServesDeadlock / ServesNonDeadlock classify the sites sharing this
	// point (Table 6 reports optimization effect per class).
	ServesDeadlock    bool
	ServesNonDeadlock bool
	SiteIDs           []int
}

// Result is a complete analysis of one module.
type Result struct {
	Mode   Mode
	Sites  []SiteAnalysis
	Census Census
	// Checkpoints is the deduplicated final set of reexecution points
	// (multiple failure sites sharing a point get a single checkpoint,
	// §3.3).
	Checkpoints []Checkpoint
	// InterprocSites counts sites selected for inter-procedural recovery.
	InterprocSites int
	// PrunedSites counts sites whose recovery was removed by §4.2.
	PrunedSites int
	// SafePrunedSites counts dereferences dropped from the census by the
	// provably-safe prover (Options.PruneSafeSites).
	SafePrunedSites int
	// Duration is the wall-clock analysis time (§6.4).
	Duration time.Duration
}

// CheckpointAt returns the checkpoint planted at pos, or nil.
func (r *Result) CheckpointAt(pos mir.Pos) *Checkpoint {
	for i := range r.Checkpoints {
		if r.Checkpoints[i].Pos == pos {
			return &r.Checkpoints[i]
		}
	}
	return nil
}

// StaticReexecPoints counts planted checkpoints (Table 5 "Static").
func (r *Result) StaticReexecPoints() int { return len(r.Checkpoints) }

// Analyze runs the full ConAir static analysis over m.
func Analyze(m *mir.Module, opts Options) (*Result, error) {
	start := time.Now()
	res := &Result{Mode: opts.Mode}
	if opts.InterprocDepth <= 0 {
		opts.InterprocDepth = DefaultInterprocDepth
	}

	var sites []Site
	switch opts.Mode {
	case Survival:
		sites = IdentifySurvival(m)
	case Fix:
		s, err := IdentifyFix(m, opts.FixSite)
		if err != nil {
			return nil, err
		}
		sites = []Site{s}
	default:
		return nil, fmt.Errorf("analysis: unknown mode %d", opts.Mode)
	}

	res.Sites = make([]SiteAnalysis, 0, len(sites))
	// Sites come in position order, so each function's sites are
	// consecutive and share one analysis context.
	c := &funcCtx{}
	for _, s := range sites {
		if opts.PruneSafeSites && s.Kind == SiteSegfault && ProvablySafeDeref(m, s.Pos) {
			res.SafePrunedSites++
			continue
		}
		res.Census.Add(s.Kind)
		sa := SiteAnalysis{Site: s}
		if c.f == nil || c.fn != s.Pos.Fn {
			c.bind(m, s.Pos.Fn)
		}

		// §3.2: intra-procedural region and reexecution points.
		sa.Region = c.region(s, opts.Policy)
		// Figure 8 slicing (used by §4.2 and §4.3).
		sa.Slice = c.slice(&sa.Region, nil)

		sa.Points = sa.Region.Points

		// §4.3: inter-procedural recovery, considered before the
		// optimization pass ("ConAir first conducts intra-procedural
		// analysis... then inter-procedural... finally optimization,
		// applied only to intra-procedural sites").
		if opts.Interproc && s.Recoverable() {
			sa.Interproc = c.selectInterproc(s, &sa.Region, &sa.Slice,
				opts.Policy, opts.InterprocDepth)
			if sa.Interproc.Selected {
				// Replace REintra (the entry point of the site's own
				// function) with the caller-side points.
				entry := mir.Pos{Fn: s.Pos.Fn, Block: 0, Index: 0}
				var pts []mir.Pos
				for _, p := range sa.Points {
					if p != entry {
						pts = append(pts, p)
					}
				}
				pts = append(pts, sa.Interproc.Points...)
				sa.Points = sortedSet(pts)
				res.InterprocSites++
			}
		}

		// §4.2: pruning, only for sites recovering intra-procedurally.
		sa.Verdict = KeepSite
		if !s.Recoverable() {
			sa.Verdict = PruneNoRecovery
		} else if opts.Optimize && !sa.Interproc.Selected {
			sa.Verdict = PruneSite(s, &sa.Region, &sa.Slice)
			if sa.Verdict.Pruned() {
				res.PrunedSites++
			}
		}

		res.Sites = append(res.Sites, sa)
	}

	res.Checkpoints = collectCheckpoints(res.Sites)
	res.Duration = time.Since(start)
	return res, nil
}

// collectCheckpoints dedupes the final reexecution points across sites.
// Points that serve only §4.2-pruned sites are dropped (the optimization's
// final step); points serving oracle-less wrong-output sites are kept so
// survival mode still measures the paper's worst-case overhead.
//
// Every (point, site) pair goes into one presized list, sorted once by
// position and site ID; each run of equal positions becomes a checkpoint,
// and the checkpoints' SiteIDs share one backing array.
func collectCheckpoints(sites []SiteAnalysis) []Checkpoint {
	type plant struct {
		pos      mir.Pos
		site     int
		deadlock bool
	}
	// Recovery removed by §4.2: the site's points plant no checkpoints
	// (unless shared with a surviving site, whose own plant covers them).
	planted := func(sa *SiteAnalysis) bool {
		return sa.Verdict != PruneNoLockInRegion && sa.Verdict != PruneNoSharedRead
	}
	n := 0
	for i := range sites {
		if planted(&sites[i]) {
			n += len(sites[i].Points)
		}
	}
	plants := make([]plant, 0, n)
	for i := range sites {
		sa := &sites[i]
		if !planted(sa) {
			continue
		}
		for _, p := range sa.Points {
			plants = append(plants, plant{p, sa.Site.ID, sa.Site.Kind == SiteDeadlock})
		}
	}
	slices.SortFunc(plants, func(a, b plant) int {
		if c := cmpPos(a.pos, b.pos); c != 0 {
			return c
		}
		return cmp.Compare(a.site, b.site)
	})

	groups := 0
	for i := range plants {
		if i == 0 || plants[i].pos != plants[i-1].pos {
			groups++
		}
	}
	out := make([]Checkpoint, 0, groups)
	ids := make([]int, len(plants))
	for i := 0; i < len(plants); {
		cp := Checkpoint{ID: len(out) + 1, Pos: plants[i].pos}
		j := i
		for ; j < len(plants) && plants[j].pos == cp.Pos; j++ {
			ids[j] = plants[j].site
			if plants[j].deadlock {
				cp.ServesDeadlock = true
			} else {
				cp.ServesNonDeadlock = true
			}
		}
		cp.SiteIDs = ids[i:j:j]
		out = append(out, cp)
		i = j
	}
	return out
}
