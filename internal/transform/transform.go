// Package transform implements ConAir's code transformation (paper §3.3
// and §4.1): it rewrites an analyzed MIR module so that the hardened
// program recovers from concurrency-bug failures by single-threaded
// idempotent reexecution.
//
// At every reexecution point a checkpoint instruction is planted (the
// setjmp plus thread-local region counter of Figure 6). At every surviving
// failure site the failing operation is turned into an explicit check that
// branches to a recovery block containing a bounded rollback (the
// longjmp retry loop of Figure 6):
//
//   - assert %e           →  br %e, cont, recover;
//     recover: rollback; fail assert
//   - oracle %e           →  same, failing as wrong-output
//   - %v = load %p        →  %ok = gt %p, LowerBound; br %ok, cont, recover;
//     recover: rollback; jmp cont   (exhausted retries
//     fall into the real dereference, Figure 5c)
//   - lock %m             →  %r = timedlock %m; br %r, cont, recover;
//     recover: sleeprand; rollback; fail deadlock
//     (the sleeprand is the livelock-avoidance random
//     backoff of §3.3)
//
// The transformation is purely IR→IR: the input module is cloned, blocks
// are rebuilt with checkpoints and guards, and recovery blocks are
// appended. Branch targets stay valid because block indices never shift.
// Compensation for allocations and lock acquisitions inside reexecution
// regions (§4.1) is performed by the interpreter at rollback, driven by
// the checkpoints' region counters, so no extra instrumentation is needed
// here.
package transform

import (
	"strconv"

	"conair/internal/analysis"
	"conair/internal/interp"
	"conair/internal/mir"
)

// Options tunes the planted recovery code.
type Options struct {
	// MaxRetry bounds recovery attempts per failure site (the paper's
	// maxRetryNum, default one million).
	MaxRetry int64
	// LockTimeout is the timed-lock timeout in interpreter steps for
	// converted deadlock sites.
	LockTimeout int
	// LivelockBackoff is the bound of the random sleep planted at
	// deadlock failure sites.
	LivelockBackoff int64
}

// Defaults mirror the paper's configuration.
const (
	DefaultMaxRetry        = int64(1_000_000)
	DefaultLockTimeout     = 400
	DefaultLivelockBackoff = int64(32)
)

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxRetry <= 0 {
		out.MaxRetry = DefaultMaxRetry
	}
	if out.LockTimeout <= 0 {
		out.LockTimeout = DefaultLockTimeout
	}
	if out.LivelockBackoff <= 0 {
		out.LivelockBackoff = DefaultLivelockBackoff
	}
	return out
}

// Apply rewrites module m according to the analysis result, returning the
// hardened clone. The input module is left untouched. res is in the
// position order Analyze produces: checkpoints sorted by position, sites
// by position.
func Apply(m *mir.Module, res *analysis.Result, opts Options) *mir.Module {
	opts = opts.withDefaults()

	// The recovering sites, in position order like the checkpoints, so
	// each function's plants and rewrites are one sub-slice of each list.
	n := 0
	for i := range res.Sites {
		if res.Sites[i].Recovers() {
			n++
		}
	}
	rws := make([]*analysis.SiteAnalysis, 0, n)
	for i := range res.Sites {
		if sa := &res.Sites[i]; sa.Recovers() {
			rws = append(rws, sa)
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
	cps := res.Checkpoints
	for fi := range m.Functions {
		nc := 0
		for nc < len(cps) && cps[nc].Pos.Fn == fi {
			nc++
		}
		nr := 0
		for nr < len(rws) && rws[nr].Site.Pos.Fn == fi {
			nr++
		}
		if nc == 0 && nr == 0 {
			out.Functions[fi] = m.Functions[fi].Clone()
			continue
		}
		out.Functions[fi] = rewriteFunction(&m.Functions[fi], cps[:nc], rws[:nr], opts)
		cps, rws = cps[nc:], rws[nr:]
	}
	return out
}

// siteGrowth is the number of instructions a site rewrite adds to its
// block (see the package comment).
func siteGrowth(k analysis.SiteKind) int {
	switch k {
	case analysis.SiteSegfault:
		return 2
	case analysis.SiteDeadlock:
		return 1
	}
	return 0
}

// rewriteFunction returns src rebuilt with its checkpoints planted and its
// failure sites rewritten; cps and rws are the function's checkpoints and
// recovering sites in position order, merged into the instruction stream
// as it is emitted. New recovery and continuation blocks are appended
// after the original blocks so original block indices (and hence branch
// targets) stay valid. The original and continuation blocks view one
// exactly sized instruction array, each with cap == len; the recovery
// blocks view a second one.
func rewriteFunction(src *mir.Function, cps []analysis.Checkpoint,
	rws []*analysis.SiteAnalysis, opts Options) mir.Function {

	size := src.NumInstrs() + len(cps)
	// Segfault and deadlock rewrites each add one register, and a
	// deadlock rewrite one failure text.
	regs, texts := 0, 0
	for _, sa := range rws {
		size += siteGrowth(sa.Site.Kind)
		switch sa.Site.Kind {
		case analysis.SiteSegfault:
			regs++
		case analysis.SiteDeadlock:
			regs++
			texts++
		}
	}
	f := src.CloneHeader(regs, texts)

	nOrig := len(src.Blocks)
	newBlocks := make([]mir.Block, nOrig, nOrig+2*len(rws))

	// appendBlock adds a block after the originals and returns its index.
	appendBlock := func(name string) int32 {
		newBlocks = append(newBlocks, mir.Block{Name: name})
		return int32(len(newBlocks) - 1)
	}
	// recoverBlock fills block b with the recovery instructions ins,
	// carved out of one array of at most three per rewrite.
	recovery := make([]mir.Instr, 0, 3*len(rws))
	recoverBlock := func(b int32, ins ...mir.Instr) {
		start := len(recovery)
		recovery = append(recovery, ins...)
		newBlocks[b].Instrs = recovery[start:len(recovery):len(recovery)]
	}
	// name is scratch for labels and register names.
	var name []byte
	// newReg appends a fresh compiler temporary named <prefix><id>.
	newReg := func(prefix string, id int) int32 {
		name = strconv.AppendInt(append(name[:0], prefix...), int64(id), 10)
		f.RegNames = append(f.RegNames, string(name))
		return int32(len(f.RegNames) - 1)
	}

	// Everything but the recovery blocks lands in one array of exactly
	// size instructions, the blocks in order and each contiguous.
	buf := make([]mir.Instr, 0, size)
	emit := func(in mir.Instr) {
		buf = append(buf, in)
	}
	// A site rewrite redirects subsequent emits into its continuation
	// block by starting a new segment of buf; the segments become the
	// block instruction lists once the block is complete.
	type segment struct {
		block int32
		start int
	}
	var segs []segment
	startSegment := func(block int32) {
		segs = append(segs, segment{block, len(buf)})
	}

	for bi := 0; bi < nOrig; bi++ {
		srcInstrs := src.Blocks[bi].Instrs
		curName := src.Blocks[bi].Name
		newBlocks[bi].Name = curName

		// Blocks with no checkpoint plant and no site rewrite are copied
		// verbatim; only touched blocks pay the instruction-by-instruction
		// rebuild below. Hardened modules touch a handful of blocks, so
		// this skips the bulk of the rewrite work.
		if (len(cps) == 0 || cps[0].Pos.Block != bi) && (len(rws) == 0 || rws[0].Site.Pos.Block != bi) {
			start := len(buf)
			buf = append(buf, srcInstrs...)
			newBlocks[bi].Instrs = buf[start:len(buf):len(buf)]
			continue
		}

		segs = append(segs[:0], segment{int32(bi), len(buf)})
		for ii := 0; ii < len(srcInstrs); ii++ {
			for len(cps) > 0 && cps[0].Pos.Block == bi && cps[0].Pos.Index == ii {
				emit(mir.Instr{Op: mir.OpCheckpoint, Dst: -1, Site: int32(cps[0].ID)})
				cps = cps[1:]
			}
			if len(rws) == 0 || rws[0].Site.Pos.Block != bi || rws[0].Site.Pos.Index != ii {
				emit(srcInstrs[ii])
				continue
			}
			site := rws[0].Site
			rws = rws[1:]
			siteID := int32(site.ID)
			in := srcInstrs[ii]
			// Every rewrite branches to <block>.s<id>.recover and continues
			// in <block>.s<id>.cont.
			name = strconv.AppendInt(append(append(name[:0], curName...), ".s"...), int64(site.ID), 10)
			n := len(name)
			recover := appendBlock(string(append(name, ".recover"...)))
			cont := appendBlock(string(append(name[:n], ".cont"...)))
			switch site.Kind {
			case analysis.SiteAssert, analysis.SiteWrongOutput:
				// Figure 6: the assert's condition becomes a branch; the
				// recovery block retries, then really fails with the
				// assert's text, which stays in the same pool slot.
				failKind := mir.FailAssert
				if site.Kind == analysis.SiteWrongOutput {
					failKind = mir.FailWrongOutput
				}
				emit(mir.Instr{
					Op: mir.OpBr, Dst: -1, A: in.A,
					Aux: cont, Else: recover, Site: siteID,
				})
				recoverBlock(recover,
					mir.Instr{Op: mir.OpRollback, Dst: -1, Site: siteID, Imm: opts.MaxRetry},
					mir.Instr{Op: mir.OpFail, Dst: -1, FailKind: failKind, Site: siteID, Ext: in.Ext},
				)
				startSegment(cont)

			case analysis.SiteSegfault:
				// Figure 5c: pointer sanity check; exhausted retries fall
				// into the real dereference.
				ok := newReg(".ok", site.ID)
				emit(mir.Instr{
					Op: mir.OpBin, Bin: mir.BinGt, Dst: ok,
					A: in.A, B: mir.Imm(interp.LowerBound),
				})
				emit(mir.Instr{
					Op: mir.OpBr, Dst: -1, A: mir.Reg(int(ok)),
					Aux: cont, Else: recover, Site: siteID,
				})
				recoverBlock(recover,
					mir.Instr{Op: mir.OpRollback, Dst: -1, Site: siteID, Imm: opts.MaxRetry},
					mir.Instr{Op: mir.OpJmp, Dst: -1, Aux: cont},
				)
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
				got := newReg(".lk", site.ID)
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
				recoverBlock(recover,
					mir.Instr{Op: mir.OpSleepRand, Dst: -1, A: mir.Imm(opts.LivelockBackoff)},
					mir.Instr{Op: mir.OpRollback, Dst: -1, Site: siteID, Imm: opts.MaxRetry},
					fail,
				)
				startSegment(cont)
			}
		}
		// A checkpoint may be addressed at one past the last position of a
		// block only if the block's terminator was a destroyer, which
		// terminators never are; such a plant is dropped.
		for len(cps) > 0 && cps[0].Pos.Block == bi {
			cps = cps[1:]
		}

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
