package analysis

import (
	"sort"

	"conair/internal/mir"
)

// Region is the result of the reexecution-region identification for one
// failure site (paper §3.2.2): the set of reexecution points — positions
// where a checkpoint must be planted — plus the facts the pruning and
// inter-procedural analyses need about the region's contents.
type Region struct {
	Site Site
	// Points are checkpoint insertion positions within the site's function:
	// a checkpoint goes immediately BEFORE the instruction at each point.
	// Function entry is point (fn, 0, 0).
	Points []mir.Pos
	// Members are the instruction positions lying on some
	// idempotency-destroying-free backward path from the site (the site
	// itself excluded).
	Members []mir.Pos
	// HasLockAcquire reports a lock acquisition among Members — the
	// deadlock recoverability requirement (§4.2).
	HasLockAcquire bool
	// OnlyEntryPoint reports that the backward walk produced exactly one
	// reexecution point, the function entry: no path from entry to the
	// site crosses an idempotency-destroying instruction. This is
	// condition (1) for inter-procedural recovery (§4.3).
	OnlyEntryPoint bool
}

// IdentifyRegion performs the backward depth-first search from the failure
// site at sitePos, stopping each path at the first idempotency-destroying
// instruction (under the given region policy) or at function entry:
//
//   - hitting a destroying instruction s yields a reexecution point right
//     after s;
//   - hitting the entry of the function yields the entry point;
//   - blocks already scanned are not rescanned (the paper's work-list
//     visited rule), so the walk is linear in function size.
//
// The walk is at instruction granularity: the site's own block is scanned
// upward from just above the site, and — if reached again around a loop —
// rescanned from its end like any predecessor block.
func IdentifyRegion(m *mir.Module, site Site, policy mir.RegionPolicy) Region {
	f := &m.Functions[site.Pos.Fn]
	cfg := mir.BuildCFG(f)
	r := Region{Site: site}

	pointSet := map[mir.Pos]bool{}
	memberSet := map[mir.Pos]bool{}
	// visited marks blocks whose full scan (from their last instruction)
	// has been performed or queued.
	visited := make([]bool, len(f.Blocks))
	// worklist of blocks to scan from the end.
	var work []int

	entryPoint := mir.Pos{Fn: site.Pos.Fn, Block: 0, Index: 0}

	// scan walks block bi backward from index from (inclusive) and either
	// stops at a destroying instruction (adding a point after it) or falls
	// off the block start (queueing predecessors, or adding the entry
	// point for the entry block).
	scan := func(bi, from int) {
		blk := &f.Blocks[bi]
		for idx := from; idx >= 0; idx-- {
			in := &blk.Instrs[idx]
			if mir.Destroys(in, policy) {
				pointSet[mir.Pos{Fn: site.Pos.Fn, Block: bi, Index: idx + 1}] = true
				return
			}
			p := mir.Pos{Fn: site.Pos.Fn, Block: bi, Index: idx}
			if p != site.Pos {
				memberSet[p] = true
				if mir.IsLockAcquire(in) {
					r.HasLockAcquire = true
				}
			}
		}
		if bi == 0 {
			// Reached the entrance of the function containing the site.
			pointSet[entryPoint] = true
			return
		}
		preds := cfg.Preds[bi]
		if len(preds) == 0 {
			// Unreachable block: treat its start as a boundary point so a
			// checkpoint still dominates the site in degenerate modules.
			pointSet[mir.Pos{Fn: site.Pos.Fn, Block: bi, Index: 0}] = true
			return
		}
		for _, pb := range preds {
			if !visited[pb] {
				visited[pb] = true
				work = append(work, pb)
			}
		}
	}

	// First leg: from just above the site within its own block. The
	// site's block is NOT marked visited by this partial scan — a loop
	// path may reenter it from the end, which is a different scan.
	scan(site.Pos.Block, site.Pos.Index-1)

	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		scan(bi, len(f.Blocks[bi].Instrs)-1)
	}

	r.Points = sortedPositions(pointSet)
	r.Members = sortedPositions(memberSet)
	r.OnlyEntryPoint = len(r.Points) == 1 && r.Points[0] == entryPoint
	return r
}

func sortedPositions(set map[mir.Pos]bool) []mir.Pos {
	out := make([]mir.Pos, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// IdentifyRegionAt is IdentifyRegion for a walk starting at an arbitrary
// position rather than a failure site — the inter-procedural analysis
// walks backward from call sites in caller functions (§4.3). The returned
// Region has the pseudo-site's position but inherits the identity of the
// original site.
func IdentifyRegionAt(m *mir.Module, origin Site, startPos mir.Pos, policy mir.RegionPolicy) Region {
	pseudo := origin
	pseudo.Pos = startPos
	return IdentifyRegion(m, pseudo, policy)
}
