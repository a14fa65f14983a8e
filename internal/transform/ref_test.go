package transform

// The rewrite's reference implementation: Apply and rewriteFunction as
// they were before the map-free rewrite, kept bar renaming as the oracle
// for TestApplyMatchesReference and FuzzApplyReference. Plants and site
// rewrites are grouped per function through maps and looked up per
// instruction by (block, index) keys; labels and register names are
// built with fmt.

import (
	"fmt"
	"sort"

	"conair/internal/analysis"
	"conair/internal/interp"
	"conair/internal/mir"
)

// refApply is the reference Apply.
func refApply(m *mir.Module, res *analysis.Result, opts Options) *mir.Module {
	opts = opts.withDefaults()

	// Group checkpoint plants and site rewrites by function.
	checkpointsByFn := map[int][]analysis.Checkpoint{}
	for _, cp := range res.Checkpoints {
		checkpointsByFn[cp.Pos.Fn] = append(checkpointsByFn[cp.Pos.Fn], cp)
	}
	rewritesByFn := map[int][]*analysis.SiteAnalysis{}
	for i := range res.Sites {
		sa := &res.Sites[i]
		if sa.Recovers() {
			rewritesByFn[sa.Site.Pos.Fn] = append(rewritesByFn[sa.Site.Pos.Fn], sa)
		}
	}

	// Functions without plants or rewrites are cloned; the rest are built
	// afresh from the original, so no clone of them is made to be thrown
	// away.
	out := &mir.Module{
		Name:      m.Name,
		Globals:   append([]mir.Global(nil), m.Globals...),
		Functions: make([]mir.Function, len(m.Functions)),
	}
	for fi := range m.Functions {
		cps := checkpointsByFn[fi]
		rws := rewritesByFn[fi]
		if len(cps) == 0 && len(rws) == 0 {
			out.Functions[fi] = m.Functions[fi].Clone()
			continue
		}
		out.Functions[fi] = refRewriteFunction(&m.Functions[fi], cps, rws, opts)
	}
	return out
}

// refSiteGrowth is the number of instructions a site rewrite adds to its
// block, by site kind (see the package comment).
var refSiteGrowth = map[analysis.SiteKind]int{analysis.SiteSegfault: 2, analysis.SiteDeadlock: 1}

// refRewriteFunction is the reference rewriteFunction.
func refRewriteFunction(src *mir.Function, cps []analysis.Checkpoint,
	rws []*analysis.SiteAnalysis, opts Options) mir.Function {

	f := src.CloneHeader(0, 0)

	// Per original (block, index): checkpoints to plant before it and the
	// site rewrite to apply to it.
	cpAt := map[[2]int][]int{} // (block, index) -> checkpoint IDs
	for _, cp := range cps {
		key := [2]int{cp.Pos.Block, cp.Pos.Index}
		cpAt[key] = append(cpAt[key], cp.ID)
	}
	for k := range cpAt {
		sort.Ints(cpAt[k])
	}
	rwAt := map[[2]int]*analysis.SiteAnalysis{}
	size := src.NumInstrs() + len(cps)
	for _, sa := range rws {
		rwAt[[2]int{sa.Site.Pos.Block, sa.Site.Pos.Index}] = sa
		size += refSiteGrowth[sa.Site.Kind]
	}

	nOrig := len(src.Blocks)
	newBlocks := make([]mir.Block, nOrig, nOrig+2*len(rws))

	// Blocks with no checkpoint plant and no site rewrite are copied
	// verbatim; only touched blocks pay the instruction-by-instruction
	// rebuild below. Hardened modules touch a handful of blocks, so this
	// skips the bulk of the rewrite work.
	touched := make([]bool, nOrig)
	for k := range cpAt {
		touched[k[0]] = true
	}
	for k := range rwAt {
		touched[k[0]] = true
	}

	// newReg appends a fresh compiler temporary.
	newReg := func(name string) int32 {
		f.RegNames = append(f.RegNames, name)
		return int32(len(f.RegNames) - 1)
	}
	// appendBlock adds a block after the originals and returns its index.
	appendBlock := func(name string) int32 {
		newBlocks = append(newBlocks, mir.Block{Name: name})
		return int32(len(newBlocks) - 1)
	}

	// Everything but the recovery blocks lands in one array of exactly
	// size instructions, the blocks in order and each contiguous.
	buf := make([]mir.Instr, 0, size)

	for bi := 0; bi < nOrig; bi++ {
		srcInstrs := src.Blocks[bi].Instrs
		curName := src.Blocks[bi].Name
		newBlocks[bi].Name = curName
		if !touched[bi] {
			start := len(buf)
			buf = append(buf, srcInstrs...)
			newBlocks[bi].Instrs = buf[start:len(buf):len(buf)]
			continue
		}

		// A site rewrite redirects subsequent emits into its continuation
		// block by starting a new segment of buf; the segments become the
		// block instruction lists once the block is complete.
		type segment struct {
			block int32
			start int
		}
		segs := []segment{{int32(bi), len(buf)}}
		emit := func(in mir.Instr) {
			buf = append(buf, in)
		}
		startSegment := func(block int32) {
			segs = append(segs, segment{block, len(buf)})
		}

		for ii := 0; ii < len(srcInstrs); ii++ {
			for _, cpID := range cpAt[[2]int{bi, ii}] {
				emit(mir.Instr{Op: mir.OpCheckpoint, Dst: -1, Site: int32(cpID)})
			}
			sa := rwAt[[2]int{bi, ii}]
			if sa == nil {
				emit(srcInstrs[ii])
				continue
			}

			site := sa.Site
			siteID := int32(site.ID)
			in := srcInstrs[ii]
			label := fmt.Sprintf("%s.s%d", curName, site.ID)
			switch site.Kind {
			case analysis.SiteAssert, analysis.SiteWrongOutput:
				// Figure 6: the assert's condition becomes a branch; the
				// recovery block retries, then really fails with the
				// assert's text, which stays in the same pool slot.
				failKind := mir.FailAssert
				if site.Kind == analysis.SiteWrongOutput {
					failKind = mir.FailWrongOutput
				}
				recover := appendBlock(label + ".recover")
				cont := appendBlock(label + ".cont")
				emit(mir.Instr{
					Op: mir.OpBr, Dst: -1, A: in.A,
					Aux: cont, Else: recover, Site: siteID,
				})
				newBlocks[recover].Instrs = []mir.Instr{
					{Op: mir.OpRollback, Dst: -1, Site: siteID, Imm: opts.MaxRetry},
					{Op: mir.OpFail, Dst: -1, FailKind: failKind, Site: siteID, Ext: in.Ext},
				}
				startSegment(cont)

			case analysis.SiteSegfault:
				// Figure 5c: pointer sanity check; exhausted retries fall
				// into the real dereference.
				ok := newReg(fmt.Sprintf(".ok%d", site.ID))
				recover := appendBlock(label + ".recover")
				cont := appendBlock(label + ".cont")
				emit(mir.Instr{
					Op: mir.OpBin, Bin: mir.BinGt, Dst: ok,
					A: in.A, B: mir.Imm(interp.LowerBound),
				})
				emit(mir.Instr{
					Op: mir.OpBr, Dst: -1, A: mir.Reg(int(ok)),
					Aux: cont, Else: recover, Site: siteID,
				})
				newBlocks[recover].Instrs = []mir.Instr{
					{Op: mir.OpRollback, Dst: -1, Site: siteID, Imm: opts.MaxRetry},
					{Op: mir.OpJmp, Dst: -1, Aux: cont},
				}
				startSegment(cont)
				deref := in
				deref.Site = siteID
				emit(deref)

			case analysis.SiteDeadlock:
				// Figure 5d: the blocking acquisition becomes its timed
				// form — lock → timedlock, wait → timed wait, chsend →
				// timed chsend — and a timeout enters recovery with random
				// backoff against livelock. The timed wait leaves its mutex
				// released on timeout, so the rollback re-executes the
				// (compensated) lock, the predicate check and the wait from
				// scratch; the timed send re-checks whatever shared
				// condition stopped the peer from receiving.
				got := newReg(fmt.Sprintf(".lk%d", site.ID))
				recover := appendBlock(label + ".recover")
				cont := appendBlock(label + ".cont")
				timed := mir.Instr{
					Op: mir.OpTimedLock, Dst: got, A: in.A,
					Imm: mir.Word(opts.LockTimeout), Site: siteID,
				}
				switch in.Op {
				case mir.OpWait, mir.OpChSend:
					timed.Op = in.Op
					timed.B = in.B
				}
				emit(timed)
				failText := "lock acquisition timed out after exhausted recovery"
				switch in.Op {
				case mir.OpWait:
					failText = "condition wait timed out after exhausted recovery"
				case mir.OpChSend:
					failText = "channel send timed out after exhausted recovery"
				}
				emit(mir.Instr{
					Op: mir.OpBr, Dst: -1, A: mir.Reg(int(got)),
					Aux: cont, Else: recover, Site: siteID,
				})
				fail := mir.Instr{Op: mir.OpFail, Dst: -1, FailKind: mir.FailDeadlock, Site: siteID}
				f.SetText(&fail, failText)
				newBlocks[recover].Instrs = []mir.Instr{
					{Op: mir.OpSleepRand, Dst: -1, A: mir.Imm(opts.LivelockBackoff)},
					{Op: mir.OpRollback, Dst: -1, Site: siteID, Imm: opts.MaxRetry},
					fail,
				}
				startSegment(cont)
			}
		}
		// A checkpoint may be addressed at one past the last position of a
		// block only if the block's terminator was a destroyer, which
		// terminators never are; nothing to flush.

		// Slice the block's part of buf into the rebuilt blocks.
		// Three-index expressions keep the segments from ever sharing
		// append capacity.
		for k, sg := range segs {
			end := len(buf)
			if k+1 < len(segs) {
				end = segs[k+1].start
			}
			newBlocks[sg.block].Instrs = buf[sg.start:end:end]
		}
	}
	f.Blocks = newBlocks
	return f
}
