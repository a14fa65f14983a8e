package transform

import (
	"fmt"

	"conair/internal/analysis"
	"conair/internal/mir"
)

// CheckInvariants validates the structural guarantees the transformation
// must establish in a hardened module. It is used by the test suite and
// the differential fuzzer as an executable specification of §3.3:
//
//  1. every rollback names a failure site, has a positive retry bound,
//     and is followed by either the real failure (fail) or the real
//     operation (a jump back to the continuation) — the Figure 6 shape;
//  2. every site-tagged failure-check branch sends its failing edge into
//     a block that performs a rollback (possibly after the deadlock
//     backoff);
//  3. checkpoint ids are dense, unique, and placed exactly at the
//     positions the analysis chose;
//  4. for every site recovering intra-procedurally, at least one of its
//     checkpoints dominates the site's failure check, so the most-recent
//     jump buffer is always valid when the rollback runs (the
//     most-recent-checkpoint argument of §3.3); inter-procedural sites
//     are checked for having caller-side checkpoints instead.
func CheckInvariants(m *mir.Module, res *analysis.Result) error {
	// Collect checkpoint positions by id, and rollback/site-branch
	// positions by site.
	cpPos := map[int][]mir.Pos{}
	branchPos := map[int][]mir.Pos{}
	for fi := range m.Functions {
		f := &m.Functions[fi]
		for bi := range f.Blocks {
			for ii := range f.Blocks[bi].Instrs {
				in := &f.Blocks[bi].Instrs[ii]
				pos := mir.Pos{Fn: fi, Block: bi, Index: ii}
				switch in.Op {
				case mir.OpCheckpoint:
					cpPos[int(in.Site)] = append(cpPos[int(in.Site)], pos)
				case mir.OpRollback:
					if in.Site <= 0 {
						return fmt.Errorf("rollback at %v without a site id", pos)
					}
					if in.Imm <= 0 {
						return fmt.Errorf("rollback at %v without a retry bound", pos)
					}
					if ii+1 >= len(f.Blocks[bi].Instrs) {
						return fmt.Errorf("rollback at %v is a block terminator", pos)
					}
					next := &f.Blocks[bi].Instrs[ii+1]
					if next.Op != mir.OpFail && next.Op != mir.OpJmp {
						return fmt.Errorf("rollback at %v followed by %v, want fail or jmp", pos, next.Op)
					}
				case mir.OpBr:
					if in.Site > 0 {
						branchPos[int(in.Site)] = append(branchPos[int(in.Site)], pos)
						els := &f.Blocks[in.Else]
						if len(els.Instrs) == 0 {
							return fmt.Errorf("site %d recovery block empty", in.Site)
						}
						first := els.Instrs[0].Op
						if first != mir.OpRollback && first != mir.OpSleepRand {
							return fmt.Errorf("site %d failing edge enters %v, want rollback/sleeprand", in.Site, first)
						}
					}
				}
			}
		}
	}

	// Checkpoint ids dense and unique.
	for id := 1; id <= len(res.Checkpoints); id++ {
		ps := cpPos[id]
		if len(ps) == 0 {
			return fmt.Errorf("checkpoint id %d missing from the module", id)
		}
		if len(ps) > 1 {
			return fmt.Errorf("checkpoint id %d planted %d times", id, len(ps))
		}
	}
	if len(cpPos) != len(res.Checkpoints) {
		return fmt.Errorf("module has %d checkpoints, analysis chose %d", len(cpPos), len(res.Checkpoints))
	}

	// Per-site coverage: the site's checkpoints must form a cut on every
	// path from the function entry to the failure check, so the thread's
	// jump buffer is always set when the rollback can run. (A single
	// checkpoint need not dominate — one point per incoming path is the
	// normal multi-path shape of §3.2.2.)
	cfgCache := map[int]*mir.CFG{}
	cfgOf := func(fi int) *mir.CFG {
		if c, ok := cfgCache[fi]; ok {
			return c
		}
		c := mir.BuildCFG(&m.Functions[fi])
		cfgCache[fi] = c
		return c
	}
	for i := range res.Sites {
		sa := &res.Sites[i]
		if !sa.Recovers() {
			continue
		}
		checks := branchPos[sa.Site.ID]
		if len(checks) == 0 {
			return fmt.Errorf("site %d (%v) recovers but has no failure check", sa.Site.ID, sa.Site.Kind)
		}
		if sa.Interproc.Selected {
			// The site's checkpoints live in callers; require that every
			// final point is outside the site's own function.
			for _, p := range sa.Points {
				if p.Fn == sa.Site.Pos.Fn {
					return fmt.Errorf("site %d is inter-procedural but keeps point %v in its own function", sa.Site.ID, p)
				}
			}
			continue
		}
		// Owning-checkpoint positions in the site's (transformed) function.
		var owned []mir.Pos
		for _, cp := range res.Checkpoints {
			if serves(cp, sa.Site.ID) {
				if ps := cpPos[cp.ID]; len(ps) == 1 && ps[0].Fn == sa.Site.Pos.Fn {
					owned = append(owned, ps[0])
				}
			}
		}
		for _, chk := range checks {
			if uncoveredPathExists(cfgOf(chk.Fn), owned, chk) {
				return fmt.Errorf("site %d: a path from entry reaches its failure check at %v without crossing any of its checkpoints", sa.Site.ID, chk)
			}
		}
	}
	return nil
}

// uncoveredPathExists reports whether some CFG path from the function
// entry reaches the check position without executing any of the given
// checkpoint positions first.
func uncoveredPathExists(cfg *mir.CFG, cps []mir.Pos, chk mir.Pos) bool {
	cpBefore := func(block, limit int) bool {
		for _, p := range cps {
			if p.Block == block && p.Index < limit {
				return true
			}
		}
		return false
	}
	cpAny := func(block int) bool { return cpBefore(block, int(^uint(0)>>1)) }

	// DFS over blocks; a block is traversable when it contains no owning
	// checkpoint (entering at index 0 and leaving via its terminator).
	seen := make([]bool, len(cfg.Succs))
	var stack []int
	visit := func(b int) bool {
		// Arriving at the start of block b: does the check sit here,
		// reachable before any checkpoint in this block?
		if b == chk.Block {
			if !cpBefore(b, chk.Index) {
				return true
			}
			// The check is shielded within this block; the path ends.
			return false
		}
		if !cpAny(b) && !seen[b] {
			seen[b] = true
			stack = append(stack, b)
		}
		return false
	}
	if visit(0) {
		return true
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range cfg.Succs[b] {
			if visit(s) {
				return true
			}
		}
	}
	return false
}

func serves(cp analysis.Checkpoint, siteID int) bool {
	for _, id := range cp.SiteIDs {
		if id == siteID {
			return true
		}
	}
	return false
}
