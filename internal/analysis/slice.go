package analysis

import (
	"math/bits"
	"slices"

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
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
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
// r.Members must be in position order, as IdentifyRegion returns them.
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
//
// ComputeSlice builds a one-function analysis context for the dataflow.
// Analyze instead runs every site of a function through one context,
// whose dataflow state is reused from site to site.
func ComputeSlice(m *mir.Module, r *Region, seedRegs []int) Slice {
	return newFuncCtx(m, r.Site.Pos.Fn).slice(r, seedRegs)
}

// slice is ComputeSlice for a region in c's function.
func (c *funcCtx) slice(r *Region, seedRegs []int) Slice {
	f := c.f
	members := r.Members
	n := len(members)

	// All dataflow state is indexed by a member's rank in position order:
	// the region is a small subset of one function, so state sized by the
	// member count (not the function's instruction count) stays small.
	// Membership tests binary-search the sorted flat pcs.
	c.pcs = c.pcs[:0]
	for _, p := range members {
		c.pcs = append(c.pcs, c.offs[p.Block]+int32(p.Index))
	}
	// rankOf returns the member rank of the instruction at p, or -1.
	rankOf := func(p mir.Pos) int {
		if k, ok := slices.BinarySearch(c.pcs, c.offs[p.Block]+int32(p.Index)); ok {
			return k
		}
		return -1
	}

	nregWords := (f.NumRegs() + 64) / 64
	seed := resized(c.seed, nregWords)
	if seedRegs == nil {
		c.uses = f.Uses(c.m.At(r.Site.Pos), c.uses[:0])
		seedRegs = c.uses
	}
	for _, u := range seedRegs {
		seed.add(u)
	}
	c.seed = seed
	siteNeed := seed

	// Successors never change across sweeps: precompute, per member, the
	// member ranks whose need sets feed its need-after union (the site's
	// seed is flagged separately since siteNeed is not stored in need).
	c.ins = c.ins[:0]
	c.succ = c.succ[:0]
	c.succOff = append(c.succOff[:0], 0)
	c.siteSucc = resized(c.siteSucc, n)
	for k, p := range members {
		in := &f.Blocks[p.Block].Instrs[p.Index]
		c.ins = append(c.ins, in)
		collect := func(q mir.Pos) {
			if q == r.Site.Pos {
				c.siteSucc[k] = true
			} else if qi := rankOf(q); qi >= 0 {
				c.succ = append(c.succ, int32(qi))
			}
		}
		if in.Op.IsTerminator() {
			// Successors are the first positions of successor blocks.
			switch in.Op {
			case mir.OpBr:
				collect(mir.Pos{Fn: p.Fn, Block: int(in.Aux), Index: 0})
				collect(mir.Pos{Fn: p.Fn, Block: int(in.Else), Index: 0})
			case mir.OpJmp:
				collect(mir.Pos{Fn: p.Fn, Block: int(in.Aux), Index: 0})
			}
		} else if p.Index+1 < len(f.Blocks[p.Block].Instrs) {
			collect(mir.Pos{Fn: p.Fn, Block: p.Block, Index: p.Index + 1})
		}
		c.succOff = append(c.succOff, int32(len(c.succ)))
	}

	// need[k] = registers needed before executing member k. All member
	// sets share one backing array (full-length three-index slices, so a
	// set that ever needs to grow detaches instead of clobbering its
	// neighbor).
	nw := len(seed)
	c.needBuf = resized(c.needBuf, nw*n)
	c.need = c.need[:0]
	for k := 0; k < n; k++ {
		c.need = append(c.need, c.needBuf[k*nw:(k+1)*nw:(k+1)*nw])
	}
	need := c.need
	c.onSlice = resized(c.onSlice, n)
	c.sharedReads = resized(c.sharedReads, n)
	onSlice, sharedReads := c.onSlice, c.sharedReads

	after := resized(c.after, nregWords) // scratch, rebuilt per instruction
	before := resized(c.before, nregWords)

	// The fixpoint sweeps members in reverse position order — regions are
	// small, so a simple round-robin sweep converges quickly.
	for changed := true; changed; {
		changed = false
		for k := n - 1; k >= 0; k-- {
			in := c.ins[k]

			// Need-after: union of need at every region successor (or the
			// site's seed when the site executes next).
			after.reset()
			if c.siteSucc[k] {
				after.addAll(siteNeed)
			}
			for _, qi := range c.succ[c.succOff[k]:c.succOff[k+1]] {
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
					sharedReads[k] = true
					c.addUses(&before, in)
				default:
					c.addUses(&before, in)
				}
			}
			if in.Op == mir.OpBr {
				// Conservative control dependence: in-region branches can
				// steer execution to the site, so their conditions are
				// always needed.
				sliced = true
				c.addUses(&before, in)
			}
			if sliced && !onSlice[k] {
				onSlice[k] = true
				changed = true
			}
			if (&need[k]).addAll(before) {
				changed = true
			}
		}
	}
	c.after, c.before = after, before

	// Members are in ascending position order, so the output lists are
	// sorted; each is allocated at its exact size, and stays nil if empty.
	var sl Slice
	sl.SharedReads = selected(members, sharedReads)
	sl.OnSlice = selected(members, onSlice)

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
		if ei := rankOf(entryPos); ei >= 0 {
			entryNeed = need[ei]
		}
	}
	sl.NeededAtEntry = entryNeed.elems()
	return sl
}

// addUses adds the registers in reads to s.
func (c *funcCtx) addUses(s *regSet, in *mir.Instr) {
	c.uses = c.f.Uses(in, c.uses[:0])
	for _, u := range c.uses {
		s.add(u)
	}
}

// selected returns the positions whose flag is set, in an exactly sized
// slice, or nil when there are none.
func selected(ps []mir.Pos, flags []bool) []mir.Pos {
	n := 0
	for _, b := range flags {
		if b {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]mir.Pos, 0, n)
	for i, b := range flags {
		if b {
			out = append(out, ps[i])
		}
	}
	return out
}
