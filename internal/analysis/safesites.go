package analysis

import "conair/internal/mir"

// Provably-safe failure-site pruning — the paper's §3.4 extension: "Some
// potential failure sites could be pruned, if we can statically prove that
// failures can never occur there. For example, analysis could know that
// NULL-pointer dereference may never occur at some places."
//
// The prover is a conservative intra-block reaching-definition walk: a
// dereference is provably safe when its address register's most recent
// definition chain bottoms out in
//
//   - the address of a global (addrg), with zero offset (globals are
//     single cells), or
//   - a fresh allocation (alloc) with a constant size, with a constant
//     non-negative offset below that size, provided the block is not
//     freed in between (no free instruction appears in the chain's
//     scope).
//
// Anything else — values loaded from memory, parameters, cross-block
// definitions — stays a potential segmentation-fault site.

// ProvablySafeDeref reports whether the Load/Store at pos provably cannot
// fault.
func ProvablySafeDeref(m *mir.Module, pos mir.Pos) bool {
	f := &m.Functions[pos.Fn]
	blk := &f.Blocks[pos.Block]
	site := &blk.Instrs[pos.Index]
	if site.Op != mir.OpLoad && site.Op != mir.OpStore {
		return false
	}
	if site.A.Kind != mir.OperandReg {
		return false // constant addresses are never provably mapped
	}
	// A free anywhere earlier in the block could invalidate an alloc-based
	// proof; globals are unaffected. Track whether one was seen between
	// the definition and the use during the walk.
	return safeAddr(blk, site.A.Reg, pos.Index-1, 0)
}

// safeAddr walks backward from index from for the most recent definition
// of register reg, accumulating a constant offset.
func safeAddr(blk *mir.Block, reg int32, from int, offset mir.Word) bool {
	if offset < 0 {
		return false
	}
	for i := from; i >= 0; i-- {
		in := &blk.Instrs[i]
		if !in.HasDst() || in.Dst != reg {
			// A free between definition and use defeats alloc proofs;
			// handled when the defining alloc is found (see below) by
			// rejecting any free encountered on the way.
			if in.Op == mir.OpFree {
				return false
			}
			continue
		}
		switch in.Op {
		case mir.OpAddrG:
			return offset == 0
		case mir.OpAlloc:
			return in.A.Kind == mir.OperandImm && offset < max(in.A.Imm, 1)
		case mir.OpBin:
			if in.Bin != mir.BinAdd {
				return false
			}
			// addr = base + imm (either operand order).
			switch {
			case in.A.Kind == mir.OperandReg && in.B.Kind == mir.OperandImm:
				return safeAddr(blk, in.A.Reg, i-1, offset+in.B.Imm)
			case in.A.Kind == mir.OperandImm && in.B.Kind == mir.OperandReg:
				return safeAddr(blk, in.B.Reg, i-1, offset+in.A.Imm)
			}
			return false
		default:
			return false
		}
	}
	return false // defined in another block (or a parameter): unknown
}
