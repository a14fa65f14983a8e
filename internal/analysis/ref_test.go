package analysis

// The analysis's reference implementation: the per-site region walk,
// slice and checkpoint collection that the per-function context
// replaced, kept bar renaming and trimmed comments as the oracle for
// TestAnalyzeMatchesReference and FuzzAnalyzeReference. Every site
// rebuilds its function's CFG, collects positions in map sets and sorts
// them; checkpoints are aggregated through a map keyed by position. The
// reference shares the site identification, the safe-site prover and
// PruneSite with Analyze, which it drives the way Analyze did.

import (
	"fmt"
	"sort"

	"conair/internal/mir"
)

// refAnalyze is the reference Analyze.
func refAnalyze(m *mir.Module, opts Options) (*Result, error) {
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
	for _, s := range sites {
		if opts.PruneSafeSites && s.Kind == SiteSegfault && ProvablySafeDeref(m, s.Pos) {
			res.SafePrunedSites++
			continue
		}
		res.Census.Add(s.Kind)
		sa := SiteAnalysis{Site: s}
		sa.Region = refIdentifyRegion(m, s, opts.Policy)
		sa.Slice = refComputeSlice(m, &sa.Region, nil)
		sa.Points = sa.Region.Points
		if opts.Interproc && s.Recoverable() {
			sa.Interproc = refSelectInterproc(m, s, &sa.Region, &sa.Slice,
				opts.Policy, opts.InterprocDepth)
			if sa.Interproc.Selected {
				entry := mir.Pos{Fn: s.Pos.Fn, Block: 0, Index: 0}
				var pts []mir.Pos
				for _, p := range sa.Points {
					if p != entry {
						pts = append(pts, p)
					}
				}
				pts = append(pts, sa.Interproc.Points...)
				sa.Points = refDedupPositions(pts)
				res.InterprocSites++
			}
		}
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

	res.Checkpoints = refCollectCheckpoints(res.Sites)
	return res, nil
}

// refCollectCheckpoints is the reference collectCheckpoints.
func refCollectCheckpoints(sites []SiteAnalysis) []Checkpoint {
	type agg struct {
		deadlock, nondeadlock bool
		ids                   []int
	}
	byPos := map[mir.Pos]*agg{}
	for i := range sites {
		sa := &sites[i]
		switch sa.Verdict {
		case PruneNoLockInRegion, PruneNoSharedRead:
			continue
		}
		for _, p := range sa.Points {
			a := byPos[p]
			if a == nil {
				a = &agg{}
				byPos[p] = a
			}
			if sa.Site.Kind == SiteDeadlock {
				a.deadlock = true
			} else {
				a.nondeadlock = true
			}
			a.ids = append(a.ids, sa.Site.ID)
		}
	}
	positions := make([]mir.Pos, 0, len(byPos))
	for p := range byPos {
		positions = append(positions, p)
	}
	sort.Slice(positions, func(i, j int) bool { return positions[i].Less(positions[j]) })
	out := make([]Checkpoint, len(positions))
	for i, p := range positions {
		a := byPos[p]
		sort.Ints(a.ids)
		out[i] = Checkpoint{
			ID: i + 1, Pos: p,
			ServesDeadlock: a.deadlock, ServesNonDeadlock: a.nondeadlock,
			SiteIDs: a.ids,
		}
	}
	return out
}

// refIdentifyRegion is the reference IdentifyRegion.
func refIdentifyRegion(m *mir.Module, site Site, policy mir.RegionPolicy) Region {
	f := &m.Functions[site.Pos.Fn]
	cfg := mir.BuildCFG(f)
	r := Region{Site: site}

	pointSet := map[mir.Pos]bool{}
	memberSet := map[mir.Pos]bool{}
	visited := make([]bool, len(f.Blocks))
	var work []int

	entryPoint := mir.Pos{Fn: site.Pos.Fn, Block: 0, Index: 0}

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
			pointSet[entryPoint] = true
			return
		}
		preds := cfg.Preds[bi]
		if len(preds) == 0 {
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

	scan(site.Pos.Block, site.Pos.Index-1)

	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		scan(bi, len(f.Blocks[bi].Instrs)-1)
	}

	r.Points = refSortedPositions(pointSet)
	r.Members = refSortedPositions(memberSet)
	r.OnlyEntryPoint = len(r.Points) == 1 && r.Points[0] == entryPoint
	return r
}

func refSortedPositions(set map[mir.Pos]bool) []mir.Pos {
	out := make([]mir.Pos, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// refComputeSlice is the reference ComputeSlice.
func refComputeSlice(m *mir.Module, r *Region, seedRegs []int) Slice {
	f := &m.Functions[r.Site.Pos.Fn]

	offs := f.BlockOffsets()
	flat := func(p mir.Pos) int { return int(offs[p.Block]) + p.Index }

	asc := append([]mir.Pos(nil), r.Members...)
	sort.Slice(asc, func(i, j int) bool { return asc[i].Less(asc[j]) })
	pcs := make([]int32, len(asc))
	for i, p := range asc {
		pcs[i] = int32(flat(p))
	}
	idxOf := func(pc int) int {
		lo, hi := 0, len(pcs)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if int(pcs[mid]) < pc {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(pcs) && int(pcs[lo]) == pc {
			return lo
		}
		return -1
	}

	seed := newRegSet(f.NumRegs())
	if seedRegs == nil {
		site := m.At(r.Site.Pos)
		for _, u := range f.Uses(site, nil) {
			seed.add(u)
		}
	} else {
		for _, u := range seedRegs {
			seed.add(u)
		}
	}
	siteNeed := seed

	type succInfo struct {
		in   *mir.Instr
		idx  int
		site bool
		sidx []int32
	}
	succs := make([]succInfo, len(asc))
	for k := range succs {
		idx := len(asc) - 1 - k
		p := asc[idx]
		si := &succs[k]
		si.in = m.At(p)
		si.idx = idx
		collect := func(q mir.Pos) {
			if q == r.Site.Pos {
				si.site = true
			} else if qi := idxOf(flat(q)); qi >= 0 {
				si.sidx = append(si.sidx, int32(qi))
			}
		}
		if si.in.Op.IsTerminator() {
			switch si.in.Op {
			case mir.OpBr:
				collect(mir.Pos{Fn: p.Fn, Block: int(si.in.Aux), Index: 0})
				collect(mir.Pos{Fn: p.Fn, Block: int(si.in.Else), Index: 0})
			case mir.OpJmp:
				collect(mir.Pos{Fn: p.Fn, Block: int(si.in.Aux), Index: 0})
			}
		} else if p.Index+1 < len(f.Blocks[p.Block].Instrs) {
			collect(mir.Pos{Fn: p.Fn, Block: p.Block, Index: p.Index + 1})
		}
	}

	nw := len(seed)
	backing := make(regSet, nw*len(asc))
	need := make([]regSet, len(asc))
	for i := range need {
		need[i] = backing[i*nw : (i+1)*nw : (i+1)*nw]
	}
	onSlice := make([]bool, len(asc))
	sharedReads := make([]bool, len(asc))

	after := newRegSet(f.NumRegs())
	before := newRegSet(f.NumRegs())
	var usesBuf []int

	for changed := true; changed; {
		changed = false
		for i := range succs {
			si := &succs[i]
			in := si.in

			after.reset()
			if si.site {
				after.addAll(siteNeed)
			}
			for _, qi := range si.sidx {
				after.addAll(need[qi])
			}

			if len(before) < len(after) {
				before = append(before, make(regSet, len(after)-len(before))...)
			}
			before.copyFrom(after)
			sliced := false
			if in.HasDst() && after.has(int(in.Dst)) {
				sliced = true
				before.remove(int(in.Dst))
				switch in.Op {
				case mir.OpLoadS:
				case mir.OpLoadG, mir.OpLoad:
					sharedReads[si.idx] = true
					usesBuf = f.Uses(in, usesBuf[:0])
					for _, u := range usesBuf {
						before.add(u)
					}
				default:
					usesBuf = f.Uses(in, usesBuf[:0])
					for _, u := range usesBuf {
						before.add(u)
					}
				}
			}
			if in.Op == mir.OpBr {
				sliced = true
				usesBuf = f.Uses(in, usesBuf[:0])
				for _, u := range usesBuf {
					before.add(u)
				}
			}
			if sliced && !onSlice[si.idx] {
				onSlice[si.idx] = true
				changed = true
			}
			if (&need[si.idx]).addAll(before) {
				changed = true
			}
		}
	}

	var sl Slice
	for i, p := range asc {
		if sharedReads[i] {
			sl.SharedReads = append(sl.SharedReads, p)
		}
		if onSlice[i] {
			sl.OnSlice = append(sl.OnSlice, p)
		}
	}

	entryPos := mir.Pos{Fn: r.Site.Pos.Fn, Block: 0, Index: 0}
	var entryNeed regSet
	switch {
	case entryPos == r.Site.Pos:
		entryNeed = siteNeed
	default:
		if ei := idxOf(flat(entryPos)); ei >= 0 {
			entryNeed = need[ei]
		}
	}
	sl.NeededAtEntry = entryNeed.elems()
	return sl
}

// refSelectInterproc is the reference SelectInterproc.
func refSelectInterproc(m *mir.Module, site Site, region *Region, slice *Slice,
	policy mir.RegionPolicy, maxDepth int) InterprocResult {

	if maxDepth <= 0 {
		maxDepth = DefaultInterprocDepth
	}
	var res InterprocResult
	if !region.OnlyEntryPoint {
		return res
	}
	f := &m.Functions[site.Pos.Fn]
	if site.Kind != SiteDeadlock && len(slice.CriticalParams(f)) == 0 {
		return res
	}
	if !refHasUnrecoverablePath(m, site, region, slice) {
		return res
	}
	points, levels, gaveUp := refCallerPoints(m, site, policy, site.Pos.Fn, 1, maxDepth)
	if gaveUp {
		res.GaveUp = true
		return res
	}
	if len(points) == 0 {
		return res
	}
	res.Selected = true
	res.Points = points
	res.Levels = levels
	return res
}

// refCallerPoints is the reference callerPoints.
func refCallerPoints(m *mir.Module, origin Site, policy mir.RegionPolicy,
	fi, depth, maxDepth int) (points []mir.Pos, levels int, gaveUp bool) {

	calls := mir.CallSites(m, fi)
	levels = depth
	for _, cs := range calls {
		if m.At(cs).Op == mir.OpSpawn {
			continue
		}
		pseudo := origin
		pseudo.Pos = cs
		r := refIdentifyRegion(m, pseudo, policy)
		if r.OnlyEntryPoint {
			if depth >= maxDepth {
				return nil, depth, true
			}
			ps, lv, up := refCallerPoints(m, origin, policy, cs.Fn, depth+1, maxDepth)
			if up {
				return nil, depth, true
			}
			if lv > levels {
				levels = lv
			}
			if len(ps) == 0 {
				ps = []mir.Pos{{Fn: cs.Fn, Block: 0, Index: 0}}
			}
			points = append(points, ps...)
			continue
		}
		points = append(points, r.Points...)
	}
	return refDedupPositions(points), levels, false
}

func refDedupPositions(ps []mir.Pos) []mir.Pos {
	set := map[mir.Pos]bool{}
	for _, p := range ps {
		set[p] = true
	}
	return refSortedPositions(set)
}

// refHasUnrecoverablePath is the reference hasUnrecoverablePath.
func refHasUnrecoverablePath(m *mir.Module, site Site, region *Region, slice *Slice) bool {
	f := &m.Functions[site.Pos.Fn]
	cfg := mir.BuildCFG(f)

	helpful := map[mir.Pos]bool{}
	if site.Kind == SiteDeadlock {
		for _, p := range region.Members {
			if mir.IsLockAcquire(m.At(p)) {
				helpful[p] = true
			}
		}
	} else {
		for _, p := range slice.SharedReads {
			helpful[p] = true
		}
	}
	if len(helpful) == 0 {
		return true
	}

	barrier := map[int]bool{}
	siteBlockHelps := false
	entryBlockHelps := false
	for p := range helpful {
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
	if siteBlockHelps && site.Pos.Block != 0 {
		return false
	}
	if entryBlockHelps {
		return false
	}
	return cfg.ReachesWithout(0, site.Pos.Block, barrier)
}
