package interp

import (
	"os"
	"path/filepath"
	"testing"

	"conair/internal/mir"
	"conair/internal/mirgen"
)

// sbAllowed is the test's own copy of the scheduling-irrelevant opcode
// set. It is deliberately NOT derived from sbEligible: widening the
// eligible set (say, to batch global loads) must fail here and force a
// conscious review of the observation-equivalence argument, because a
// wrongly-admitted opcode silently breaks schedule bit-identity.
var sbAllowed = map[cop]bool{
	cConst:   true,
	cAddrG:   true,
	cBinIR:   true,
	cLoadS:   true,
	cStoreS:  true,
	cStoreSI: true,
	cNop:     true,
	cYield:   true,
	cJmp:     true,
	cBr:      true, // only when site == 0, checked separately
	// The fused loop latch: an add, a compare and a plain br, all three
	// eligible on their own (TestCompileFusesLatches).
	cAddEqBr: true,
	cAddNeBr: true,
	cAddLtBr: true,
	cAddLeBr: true,
	cAddGtBr: true,
	cAddGeBr: true,
}

func init() {
	// Both specialized binary-operator ranges, one opcode per mir.BinOp.
	for bin := mir.BinAdd; bin <= mir.BinGe; bin++ {
		sbAllowed[cAddRR+cop(bin)] = true
		sbAllowed[cAddRI+cop(bin)] = true
	}
}

// local reports whether c's opcode is in the allowlist: the test's
// independent stand-in for the run loop's sbEligible gate.
func local(c *cinstr) bool { return sbAllowed[c.op] }

// sbPartition computes the superblock partition of fc: sbLen[pc] is the
// length of the maximal run of allowlisted (scheduling-irrelevant)
// instructions starting at pc, 0 when code[pc] is scheduling-relevant.
// Runs are bounded by basic blocks (control can enter a block head
// directly) and by scheduling-relevant instructions. The run loop needs no
// partition, it gates batching on sbEligible(code[pc]); the test derives
// it to check that the instructions execLocal runs form such runs.
func sbPartition(fc *fcode) []int32 {
	sbLen := make([]int32, len(fc.code))
	nb := len(fc.blockStart)
	for b := 0; b < nb; b++ {
		start := int(fc.blockStart[b])
		end := len(fc.code)
		if b+1 < nb {
			end = int(fc.blockStart[b+1])
		}
		for i := start; i < end; {
			if !local(&fc.code[i]) {
				i++
				continue
			}
			j := i
			for j < end && local(&fc.code[j]) {
				j++
			}
			for k := i; k < j; k++ {
				sbLen[k] = int32(j - k)
			}
			i = j
		}
	}
	return sbLen
}

// checkSuperblocks asserts the compile-time superblock invariants for one
// compiled module:
//
//   - a slot is allowlisted exactly when sbEligible says so;
//   - an eligible br exists only at site 0 — site-tagged branches close
//     recovery episodes and must stay on the dispatch switch;
//   - sbLen describes maximal contiguous allowlisted runs that never
//     cross a basic-block boundary or a scheduling-relevant slot.
func checkSuperblocks(t *testing.T, name string, p *Program) {
	t.Helper()
	for fi := range p.funcs {
		fc := &p.funcs[fi]
		sbLen := sbPartition(fc)
		for pc := range fc.code {
			c := &fc.code[pc]
			if local(c) != sbEligible(c) {
				t.Fatalf("%s func %d pc %d: allowlisted=%v but sbEligible=%v (op %d)",
					name, fi, pc, local(c), sbEligible(c), c.op)
			}
			if sbEligible(c) {
				if !sbAllowed[c.op] {
					t.Fatalf("%s func %d pc %d: op %d is eligible but not in the allowlist",
						name, fi, pc, c.op)
				}
				if c.op == cBr && c.site != 0 {
					t.Fatalf("%s func %d pc %d: site-tagged br (site %d) is eligible",
						name, fi, pc, c.site)
				}
			}
			if (sbLen[pc] > 0) != local(c) {
				t.Fatalf("%s func %d pc %d: sbLen=%d but allowlisted=%v",
					name, fi, pc, sbLen[pc], local(c))
			}
		}

		// Walk each basic-block span and re-derive the partition.
		nb := len(fc.blockStart)
		for b := 0; b < nb; b++ {
			start := int(fc.blockStart[b])
			end := len(fc.code)
			if b+1 < nb {
				end = int(fc.blockStart[b+1])
			}
			for pc := start; pc < end; {
				if !local(&fc.code[pc]) {
					pc++
					continue
				}
				// pc is a run head: either the block's first slot or
				// preceded by a scheduling-relevant slot.
				L := int(sbLen[pc])
				if pc+L > end {
					t.Fatalf("%s func %d pc %d: superblock of length %d crosses block end %d",
						name, fi, pc, L, end)
				}
				for k := 0; k < L; k++ {
					if !local(&fc.code[pc+k]) {
						t.Fatalf("%s func %d pc %d: scheduling-relevant slot inside superblock [%d,%d)",
							name, fi, pc+k, pc, pc+L)
					}
					if got, want := int(sbLen[pc+k]), L-k; got != want {
						t.Fatalf("%s func %d pc %d: sbLen=%d, want %d (suffix of run at %d)",
							name, fi, pc+k, got, want, pc)
					}
				}
				if pc+L < end && local(&fc.code[pc+L]) {
					t.Fatalf("%s func %d pc %d: superblock of length %d is not maximal",
						name, fi, pc, L)
				}
				pc += L
			}
		}
	}
}

// TestSuperblockBoundaries verifies the partition invariants over the
// compile-test module, the checked-in hardened golden module (checkpoint,
// rollback, timedlock, fail and recovery-block shapes), a site-tagged
// branch variant, and a sweep of generated programs.
func TestSuperblockBoundaries(t *testing.T) {
	mods := map[string]*mir.Module{
		"compiletest": compileTestModule(t),
	}

	src, err := os.ReadFile(filepath.Join("..", "transform", "testdata", "golden_transform.mir"))
	if err != nil {
		t.Fatalf("reading hardened golden module: %v", err)
	}
	golden, err := mir.Parse(string(src))
	if err != nil {
		t.Fatalf("parsing hardened golden module: %v", err)
	}
	mods["golden_transform"] = golden

	// Site-tagged branches only appear via the transform pass; tag every
	// register branch the way transform does so the site-br boundary rule
	// is exercised directly.
	tagged := compileTestModule(t)
	n := int32(0)
	for fi := range tagged.Functions {
		f := &tagged.Functions[fi]
		for b := range f.Blocks {
			for i := range f.Blocks[b].Instrs {
				in := &f.Blocks[b].Instrs[i]
				if in.Op == mir.OpBr && in.A.Kind == mir.OperandReg {
					n++
					in.Site = n
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no register branches found to site-tag")
	}
	mods["site-tagged"] = tagged

	bugs := []mirgen.BugKind{
		mirgen.BugNone, mirgen.BugOrder, mirgen.BugAtomicity, mirgen.BugLockInversion,
	}
	for i := 0; i < 25; i++ {
		cfg := mirgen.Config{Seed: int64(i), Threads: i % 4, Bug: bugs[i%len(bugs)]}
		mods[cfg.Bug.String()+"/"+string(rune('a'+i))] = mirgen.Gen(cfg)
	}

	sawRun := false
	for name, m := range mods {
		p := Compile(m)
		checkSuperblocks(t, name, p)
		for fi := range p.funcs {
			for _, l := range sbPartition(&p.funcs[fi]) {
				if l >= 2 {
					sawRun = true
				}
			}
		}
	}
	if !sawRun {
		t.Fatal("no superblock of length >= 2 anywhere in the corpus; batching never engages")
	}
}
