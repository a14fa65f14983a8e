package analysis

import "conair/internal/mir"

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
//
// IdentifyRegion builds a one-function analysis context for the walk.
// Analyze instead runs every site of a function through one context, so
// the function's CFG is built once rather than once per site.
func IdentifyRegion(m *mir.Module, site Site, policy mir.RegionPolicy) Region {
	return newFuncCtx(m, site.Pos.Fn).region(site, policy)
}

// region is IdentifyRegion for a site of c's function.
func (c *funcCtx) region(site Site, policy mir.RegionPolicy) Region {
	r := Region{Site: site}
	clear(c.seen)
	c.work = c.work[:0]
	c.points, c.members = c.points[:0], c.members[:0]

	// First leg: from just above the site within its own block. The
	// site's block is NOT marked seen by this partial scan — a loop path
	// may reenter it from the end, which is a different scan.
	c.scan(&r, policy, site.Pos.Block, site.Pos.Index-1)

	for len(c.work) > 0 {
		bi := c.work[len(c.work)-1]
		c.work = c.work[:len(c.work)-1]
		c.scan(&r, policy, bi, len(c.f.Blocks[bi].Instrs)-1)
	}

	// The two scans of the site's block can find the same positions.
	r.Points = sortedSet(c.points)
	r.Members = sortedSet(c.members)
	entryPoint := mir.Pos{Fn: c.fn, Block: 0, Index: 0}
	r.OnlyEntryPoint = len(r.Points) == 1 && r.Points[0] == entryPoint
	return r
}

// scan walks block bi backward from index from (inclusive) and either
// stops at a destroying instruction (adding a point after it) or falls
// off the block start (queueing predecessors, or adding the entry point
// for the entry block).
func (c *funcCtx) scan(r *Region, policy mir.RegionPolicy, bi, from int) {
	blk := &c.f.Blocks[bi]
	for idx := from; idx >= 0; idx-- {
		in := &blk.Instrs[idx]
		if mir.Destroys(in, policy) {
			c.points = append(c.points, mir.Pos{Fn: c.fn, Block: bi, Index: idx + 1})
			return
		}
		p := mir.Pos{Fn: c.fn, Block: bi, Index: idx}
		if p != r.Site.Pos {
			c.members = append(c.members, p)
			if mir.IsLockAcquire(in) {
				r.HasLockAcquire = true
			}
		}
	}
	if bi == 0 {
		// Reached the entrance of the function containing the site.
		c.points = append(c.points, mir.Pos{Fn: c.fn, Block: 0, Index: 0})
		return
	}
	preds := c.cfg.Preds[bi]
	if len(preds) == 0 {
		// Unreachable block: treat its start as a boundary point so a
		// checkpoint still dominates the site in degenerate modules.
		c.points = append(c.points, mir.Pos{Fn: c.fn, Block: bi, Index: 0})
		return
	}
	for _, pb := range preds {
		if !c.seen[pb] {
			c.seen[pb] = true
			c.work = append(c.work, pb)
		}
	}
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
