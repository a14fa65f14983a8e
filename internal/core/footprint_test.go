package core_test

import (
	"runtime"
	"testing"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
)

// recoverySet builds the modules the recovery experiments run: each of
// the 13 programs (the 10 paper bugs and the 3 corpus bugs) light
// (failure forced) and full, each raw, hardened with its fix and hardened
// for survival.
func recoverySet(t testing.TB) []*mir.Module {
	var mods []*mir.Module
	for _, bug := range append(bugs.All(), bugs.Corpus()...) {
		for _, cfg := range []bugs.Config{{Light: true, ForceBug: true}, {}} {
			raw := bug.Program(cfg)
			pos, err := bug.FixSite(raw)
			if err != nil {
				t.Fatalf("%s: fix site: %v", bug.Name, err)
			}
			mods = append(mods, raw)
			for _, opts := range []core.Options{core.FixOptions(pos), core.DefaultOptions()} {
				h, err := core.Harden(raw, opts)
				if err != nil {
					t.Fatalf("%s: %v", bug.Name, err)
				}
				mods = append(mods, h.Module)
			}
		}
	}
	return mods
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIRFootprint guards the live heap the recovery set holds, per
// instruction: its 78 modules, and the programs compiled from them.
func TestIRFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and compiles the whole recovery set")
	}
	const (
		maxModuleBytes   = 160 // per instruction
		maxCompiledBytes = 61  // per instruction
	)
	base := liveHeap()
	mods := recoverySet(t)
	built := liveHeap()
	progs := make([]*interp.Program, len(mods))
	for i, m := range mods {
		progs[i] = interp.Compile(m)
	}
	compiled := liveHeap()
	runtime.KeepAlive(mods)
	runtime.KeepAlive(progs)

	instrs := 0
	for _, m := range mods {
		instrs += m.NumInstrs()
	}
	perModule := float64(built-base) / float64(instrs)
	perCompiled := float64(compiled-built) / float64(instrs)
	t.Logf("%d modules, %d instructions: modules %.1f MB (%.1f B/instr), compiled %.1f MB (%.1f B/instr)",
		len(mods), instrs, float64(built-base)/1e6, perModule, float64(compiled-built)/1e6, perCompiled)
	if perModule > maxModuleBytes {
		t.Errorf("modules hold %.1f B per instruction, want at most %d", perModule, maxModuleBytes)
	}
	if perCompiled > maxCompiledBytes {
		t.Errorf("compiled programs hold %.1f B per instruction, want at most %d", perCompiled, maxCompiledBytes)
	}
}

// TestBlocksExactCapacity pins that every producer of instruction lists
// sizes them exactly: the builder, Parse, transform's rewrite and Clone
// all return blocks with cap(Instrs) == len(Instrs), so a module holds no
// slack slots.
func TestBlocksExactCapacity(t *testing.T) {
	for _, bug := range append(bugs.All(), bugs.Corpus()...) {
		for _, cfg := range []bugs.Config{{Light: true, ForceBug: true}, {}} {
			built := bug.Program(cfg)
			parsed, err := mir.Parse(mir.Print(built))
			if err != nil {
				t.Fatalf("%s: %v", bug.Name, err)
			}
			pos, err := bug.FixSite(built)
			if err != nil {
				t.Fatalf("%s: fix site: %v", bug.Name, err)
			}
			builds := map[string]*mir.Module{"built": built, "parsed": parsed, "cloned": built.Clone()}
			for name, opts := range map[string]core.Options{"fix": core.FixOptions(pos), "survival": core.DefaultOptions()} {
				h, err := core.Harden(parsed, opts)
				if err != nil {
					t.Fatalf("%s: %v", bug.Name, err)
				}
				builds[name] = h.Module
				builds[name+"/cloned"] = h.Module.Clone()
			}
			for name, m := range builds {
				for fi := range m.Functions {
					f := &m.Functions[fi]
					for bi := range f.Blocks {
						if b := &f.Blocks[bi]; cap(b.Instrs) != len(b.Instrs) {
							t.Errorf("%s light=%v %s: %s/%s has %d instructions in %d slots",
								bug.Name, cfg.Light, name, f.Name, b.Name, len(b.Instrs), cap(b.Instrs))
						}
					}
				}
			}
		}
	}
}
