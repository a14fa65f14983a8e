package analysis

import (
	"math/bits"
	"sort"

	"conair/internal/mir"
)

// Slice is the result of ConAir's simplified intra-procedural backward
// slicing for one failure site (paper §4.2, Figure 8). The slice is
// computed only over the site's reexecution region: because region members
// only write virtual registers, data dependence never has to be traced
// through memory — when a needed register is defined by a read of a
// non-register location (a stack slot), tracking simply stops, and a read
// of a global or of the heap is exactly the kind of shared read whose
// reexecution can change the failure outcome.
type Slice struct {
	// SharedReads are the in-region global/heap read positions on the
	// slice. A non-deadlock site with no shared read in any region is
	// statically unrecoverable (§4.2).
	SharedReads []mir.Pos
	// OnSlice is every region member on the slice (data dependence plus
	// the conservative control-dependence approximation: in-region
	// branches are always on the slice).
	OnSlice []mir.Pos
	// NeededAtEntry holds the register indices still needed (and not yet
	// defined) when the slice reaches the entry point of the function.
	// A parameter register here is a "critical parameter" for
	// inter-procedural recovery (§4.3).
	NeededAtEntry []int
}

// HasSharedRead reports a shared read on the slice within the region.
func (s *Slice) HasSharedRead() bool { return len(s.SharedReads) > 0 }

// CriticalParams filters NeededAtEntry down to parameter registers of f.
func (s *Slice) CriticalParams(f *mir.Function) []int {
	var out []int
	for _, r := range s.NeededAtEntry {
		if r < f.NumParams {
			out = append(out, r)
		}
	}
	return out
}

// regSet is a register-index bitset. Register indices are bounded by the
// owning function's NumRegs, so one or two machine words cover typical
// functions and every set operation is a handful of word ops — ComputeSlice
// clones and unions these per instruction per fixpoint sweep, which made
// the previous map-based representation the hottest allocation site in
// whole-module hardening.
type regSet []uint64

func newRegSet(nregs int) regSet { return make(regSet, (nregs+64)/64) }

func (s regSet) has(k int) bool {
	w := k >> 6
	return w < len(s) && s[w]&(1<<uint(k&63)) != 0
}

func (s *regSet) add(k int) {
	w := k >> 6
	for len(*s) <= w {
		*s = append(*s, 0)
	}
	(*s)[w] |= 1 << uint(k&63)
}

func (s regSet) remove(k int) {
	if w := k >> 6; w < len(s) {
		s[w] &^= 1 << uint(k&63)
	}
}

// reset clears the set in place, keeping its capacity.
func (s regSet) reset() {
	for i := range s {
		s[i] = 0
	}
}

// copyFrom makes s an exact copy of o (s must be at least as wide).
func (s regSet) copyFrom(o regSet) {
	n := copy(s, o)
	for i := n; i < len(s); i++ {
		s[i] = 0
	}
}

// addAll unions o into s, reporting whether s gained any element.
func (s *regSet) addAll(o regSet) bool {
	for len(*s) < len(o) {
		*s = append(*s, 0)
	}
	changed := false
	for i, w := range o {
		if nw := (*s)[i] | w; nw != (*s)[i] {
			(*s)[i] = nw
			changed = true
		}
	}
	return changed
}

// elems returns the set's elements in ascending order.
func (s regSet) elems() []int {
	var out []int
	for i, w := range s {
		for w != 0 {
			out = append(out, i*64+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// ComputeSlice runs the backward slice for the site of region r, seeded by
// seedRegs (defaults to the registers the site instruction uses when nil).
//
// The dataflow runs at instruction granularity over the region sub-graph:
// need(p) is the set of registers needed immediately BEFORE executing the
// instruction at p. Transfer for an instruction d defining register x with
// uses U:
//
//	on slice  ⇔ x ∈ need-after, or the instruction is an in-region branch
//	need-before = need-after  \ {x}  ∪ U     (if on slice and tracking)
//	need-before = need-after  \ {x}          (if on slice but the def reads
//	                                          a stack slot: tracking stops,
//	                                          per Figure 8)
//
// Shared reads (loadg, load) on the slice are recorded; their uses (the
// address registers) remain tracked, following pointer chains backward.
func ComputeSlice(m *mir.Module, r *Region, seedRegs []int) Slice {
	f := &m.Functions[r.Site.Pos.Fn]

	// All dataflow state is indexed by a member's rank in position order:
	// the region is a small subset of one function, so sets sized by the
	// member count (not the function's instruction count) keep ComputeSlice
	// allocation-light — it runs once per site per harden. Membership tests
	// binary-search the sorted flat pcs.
	offs := f.BlockOffsets()
	flat := func(p mir.Pos) int { return int(offs[p.Block]) + p.Index }

	asc := append([]mir.Pos(nil), r.Members...)
	sort.Slice(asc, func(i, j int) bool { return asc[i].Less(asc[j]) })
	pcs := make([]int32, len(asc))
	for i, p := range asc {
		pcs[i] = int32(flat(p))
	}
	// idxOf returns the member rank of the instruction at flat pc, or -1.
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

	// The fixpoint sweeps members in reverse position order — regions are
	// small, so a simple round-robin sweep converges quickly. Successors
	// never change across sweeps: precompute, per member, the member ranks
	// whose need sets feed its need-after union (the site's seed is flagged
	// separately since siteNeed is not stored in need[]).
	type succInfo struct {
		in   *mir.Instr
		idx  int     // this member's rank
		site bool    // some successor is the site itself
		sidx []int32 // member ranks of in-region successors
	}
	succs := make([]succInfo, len(asc))
	for k := range succs {
		idx := len(asc) - 1 - k // sweep order: highest position first
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
			// Successors are the first positions of successor blocks.
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

	// need[i] = registers needed before executing member i. All member
	// sets share one backing array (full-length three-index slices, so a
	// set that ever needs to grow detaches instead of clobbering its
	// neighbor).
	nw := len(seed)
	backing := make(regSet, nw*len(asc))
	need := make([]regSet, len(asc))
	for i := range need {
		need[i] = backing[i*nw : (i+1)*nw : (i+1)*nw]
	}
	onSlice := make([]bool, len(asc))
	sharedReads := make([]bool, len(asc))

	after := newRegSet(f.NumRegs()) // scratch, rebuilt per instruction
	before := newRegSet(f.NumRegs())
	var usesBuf []int

	for changed := true; changed; {
		changed = false
		for i := range succs {
			si := &succs[i]
			in := si.in

			// Need-after: union of need at every region successor (or the
			// site's seed when the site executes next).
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
					// Definition reads a non-register location: stop
					// tracking this chain (Figure 8).
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
				// Conservative control dependence: in-region branches can
				// steer execution to the site, so their conditions are
				// always needed.
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
	// Walk members in ascending position order so the output lists stay
	// sorted, as the map-keyed representation guaranteed via
	// sortedPositions.
	for i, p := range asc {
		if sharedReads[i] {
			sl.SharedReads = append(sl.SharedReads, p)
		}
		if onSlice[i] {
			sl.OnSlice = append(sl.OnSlice, p)
		}
	}

	// Registers needed at the entry point: the need set right before the
	// first region instruction of the entry block — i.e. need at position
	// (fn, 0, 0) if it is a member, or the site's own seed when the site
	// sits at the very top of the function.
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
