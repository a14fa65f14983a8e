package analysis

import (
	"conair/internal/mir"
)

// DefaultInterprocDepth is the paper's default bound on how many caller
// levels an inter-procedural recovery may unwind (§4.3: "the default
// setting is 3").
const DefaultInterprocDepth = 3

// InterprocResult describes the inter-procedural recovery decision for one
// failure site.
type InterprocResult struct {
	// Selected reports that the site satisfies all three §4.3 conditions
	// and its recovery crosses into caller functions.
	Selected bool
	// Points are the final reexecution points: the caller-side points of
	// every analyzed caller when Selected, otherwise nil. These replace
	// the entry point REintra of the site's own function.
	Points []mir.Pos
	// Levels is the deepest caller level actually used (1 = immediate
	// caller).
	Levels int
	// GaveUp reports the rare case (§4.3) where the caller chain still
	// reached a clean function entry at the depth limit; ConAir then
	// abandons inter-procedural recovery for the site and puts the point
	// back at the function entry.
	GaveUp bool
}

// SelectInterproc decides inter-procedural recovery for a site, given its
// intra-procedural region and slice. The three conditions (§4.3):
//
//  1. no idempotency-destroying operation on any path between the entry of
//     the site's function and the site (the region's only point is the
//     entry);
//  2. for non-deadlock sites, at least one parameter of the function is on
//     the site's backward slice (a critical parameter) — parameters are
//     the only way a caller can influence the failure outcome, because
//     regions cannot contain shared writes;
//  3. at least one path between entry and the site is unrecoverable —
//     contains no slice shared read (non-deadlock) or no lock acquisition
//     (deadlock) — which is when pushing the reexecution point into the
//     caller is most needed.
//
// When selected, the caller-side walk starts just before each call site
// (the instruction pushing the critical parameter in the paper's stack
// model; in MIR arguments are operands of the call itself) and reexecution
// points are identified by the ordinary backward walk. A caller whose walk
// reaches its own entry cleanly recurses, up to maxDepth levels.
func SelectInterproc(m *mir.Module, site Site, region *Region, slice *Slice,
	policy mir.RegionPolicy, maxDepth int) InterprocResult {
	return newFuncCtx(m, site.Pos.Fn).selectInterproc(site, region, slice, policy, maxDepth)
}

// selectInterproc is SelectInterproc for a site of c's function.
func (c *funcCtx) selectInterproc(site Site, region *Region, slice *Slice,
	policy mir.RegionPolicy, maxDepth int) InterprocResult {

	if maxDepth <= 0 {
		maxDepth = DefaultInterprocDepth
	}
	var res InterprocResult

	// Condition (1).
	if !region.OnlyEntryPoint {
		return res
	}
	// Condition (2).
	if site.Kind != SiteDeadlock && len(slice.CriticalParams(c.f)) == 0 {
		return res
	}
	// Condition (3).
	if !c.hasUnrecoverablePath(site, region, slice) {
		return res
	}

	points, levels, gaveUp := callerPoints(c.m, site, policy, site.Pos.Fn, 1, maxDepth)
	if gaveUp {
		// Keep REintra at the function entry (the paper's fallback).
		res.GaveUp = true
		return res
	}
	if len(points) == 0 {
		// No callers at all (e.g. only a thread entry function): the
		// entry of the function is where the thread starts, so the
		// intra-procedural entry point stands.
		return res
	}
	res.Selected = true
	res.Points = points
	res.Levels = levels
	return res
}

// callerPoints walks every caller of function fi backward from its call
// sites and accumulates reexecution points. A caller whose own walk comes
// back clean to its entry is recursed into; past maxDepth the whole
// selection gives up (the paper's rare fallback case).
func callerPoints(m *mir.Module, origin Site, policy mir.RegionPolicy,
	fi, depth, maxDepth int) (points []mir.Pos, levels int, gaveUp bool) {

	calls := mir.CallSites(m, fi)
	levels = depth
	for _, cs := range calls {
		if m.At(cs).Op == mir.OpSpawn {
			// A spawn is a thread start, not a frame on the failing
			// thread's stack: rollback cannot cross it. The spawned
			// function's entry remains the boundary, so this call site
			// contributes no caller-side point.
			continue
		}
		r := IdentifyRegionAt(m, origin, cs, policy)
		if r.OnlyEntryPoint {
			if depth >= maxDepth {
				// Still clean at the depth limit: §4.3's give-up case.
				return nil, depth, true
			}
			ps, lv, up := callerPoints(m, origin, policy, cs.Fn, depth+1, maxDepth)
			if up {
				return nil, depth, true
			}
			if lv > levels {
				levels = lv
			}
			if len(ps) == 0 {
				// The caller itself has no callers: its entry is the
				// reexecution point.
				ps = []mir.Pos{{Fn: cs.Fn, Block: 0, Index: 0}}
			}
			points = append(points, ps...)
			continue
		}
		points = append(points, r.Points...)
	}
	return sortedSet(points), levels, false
}

// hasUnrecoverablePath implements condition (3): is there a path from the
// function entry to the site that avoids every "helpful" position — the
// slice's shared reads for non-deadlock sites, lock acquisitions in the
// region for deadlock sites?
//
// The check is block-granular and conservative in the right direction: a
// path is only declared unrecoverable when it provably avoids all helpful
// blocks; helpful instructions in the site's own block before the site, or
// in the entry block, make every path recoverable.
func (c *funcCtx) hasUnrecoverablePath(site Site, region *Region, slice *Slice) bool {
	// Blocks that contain a helpful instruction act as barriers — except
	// the site's own block, where only instructions before the site count,
	// and the entry block, where every helpful instruction lies on every
	// path anyway.
	barrier := map[int]bool{}
	helpful, siteBlockHelps, entryBlockHelps := false, false, false
	help := func(p mir.Pos) {
		helpful = true
		switch p.Block {
		case site.Pos.Block:
			if p.Index < site.Pos.Index {
				siteBlockHelps = true
			}
		default:
			barrier[p.Block] = true
		}
		if p.Block == 0 {
			entryBlockHelps = true
		}
	}
	if site.Kind == SiteDeadlock {
		for _, p := range region.Members {
			if mir.IsLockAcquire(c.m.At(p)) {
				help(p)
			}
		}
	} else {
		for _, p := range slice.SharedReads {
			help(p)
		}
	}
	if !helpful {
		// Nothing helpful anywhere: every path is unrecoverable.
		return true
	}
	if siteBlockHelps && site.Pos.Block != 0 {
		// Every path ends by running the site block's prefix, which is
		// helpful; no unrecoverable path exists.
		return false
	}
	if entryBlockHelps {
		// Every path starts at entry, which is helpful.
		return false
	}
	return c.cfg.ReachesWithout(0, site.Pos.Block, barrier)
}
