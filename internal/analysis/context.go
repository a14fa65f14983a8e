package analysis

import (
	"cmp"
	"slices"

	"conair/internal/mir"
)

// funcCtx is the analysis context of one function. Analyze binds one
// context to each function with failure sites and runs every site of
// that function through it: the CFG is built once per function, and the
// scratch space of the region walk (§3.2.2) and of the slice dataflow
// (Figure 8) is reused from site to site — and kept when the context is
// rebound to the next function. What a Region or Slice hands out is
// copied into exactly sized slices and never aliases the scratch.
type funcCtx struct {
	m    *mir.Module
	fn   int
	f    *mir.Function
	cfg  *mir.CFG
	offs []int32 // flat index of each block's first instruction

	// seen marks the blocks the region walk has queued on work.
	seen []bool
	work []int
	// points and members collect a region walk's positions in walk order,
	// duplicates included.
	points, members []mir.Pos

	// Slice dataflow state, indexed by member rank (position order): the
	// members' flat pcs and instructions, their in-region successor ranks
	// (member k's are succ[succOff[k]:succOff[k+1]]), whether the site
	// itself follows them, and the need sets, all carved from needBuf.
	pcs                  []int32
	ins                  []*mir.Instr
	succOff, succ        []int32
	siteSucc             []bool
	need                 []regSet
	needBuf              regSet
	onSlice, sharedReads []bool
	seed, after, before  regSet
	uses                 []int
}

// newFuncCtx returns a context bound to function fn of m.
func newFuncCtx(m *mir.Module, fn int) *funcCtx {
	c := &funcCtx{}
	c.bind(m, fn)
	return c
}

// bind points c at function fn of m, building that function's CFG. The
// scratch space of the previous function is kept for reuse.
func (c *funcCtx) bind(m *mir.Module, fn int) {
	f := &m.Functions[fn]
	c.m, c.fn, c.f = m, fn, f
	c.cfg = mir.BuildCFG(f)
	c.offs = f.BlockOffsets()
	c.seen = resized(c.seen, len(f.Blocks))
}

// resized returns s with length n and every element zero, reusing its
// backing array when it is large enough.
func resized[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// cmpPos orders positions the way mir.Pos.Less does.
func cmpPos(a, b mir.Pos) int {
	if c := cmp.Compare(a.Fn, b.Fn); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Block, b.Block); c != 0 {
		return c
	}
	return cmp.Compare(a.Index, b.Index)
}

// sortedSet sorts ps in place, drops duplicates and returns the distinct
// positions in a new, exactly sized and never nil slice.
func sortedSet(ps []mir.Pos) []mir.Pos {
	slices.SortFunc(ps, cmpPos)
	ps = slices.Compact(ps)
	return append(make([]mir.Pos, 0, len(ps)), ps...)
}
