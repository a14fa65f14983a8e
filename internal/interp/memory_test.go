package interp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"conair/internal/mir"
)

// Model-based test of the flat memory: a random sequence of alloc, store,
// load and free operations must agree with a map-backed reference model,
// including fault behaviour.
func TestMemoryAgainstModel(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mem := newMemory(&mir.Module{Globals: []mir.Global{{Name: "g", Init: 5}}})

		type block struct {
			base  mir.Word
			size  mir.Word
			freed bool
		}
		var blocks []block
		model := map[mir.Word]mir.Word{} // valid addr -> value
		model[globalAddr(0)] = 5

		randAddr := func() mir.Word {
			switch rng.Intn(5) {
			case 0:
				return 0 // null
			case 1:
				return mir.Word(rng.Intn(int(LowerBound) + 100)) // low / barely invalid
			case 2:
				return globalAddr(0)
			default:
				if len(blocks) == 0 {
					return HeapBase + mir.Word(rng.Intn(50))
				}
				b := blocks[rng.Intn(len(blocks))]
				// In-bounds or slightly out.
				return b.base + mir.Word(rng.Intn(int(b.size)+2)) - 1
			}
		}

		for op := 0; op < 2000; op++ {
			switch rng.Intn(10) {
			case 0, 1: // alloc
				size := mir.Word(1 + rng.Intn(6))
				base := mem.alloc(size)
				blocks = append(blocks, block{base: base, size: size})
				for i := mir.Word(0); i < size; i++ {
					model[base+i] = 0
				}
			case 2: // free a known block (possibly double-free)
				if len(blocks) == 0 {
					continue
				}
				b := &blocks[rng.Intn(len(blocks))]
				ok := mem.free(b.base)
				if ok == b.freed {
					t.Fatalf("seed %d op %d: free(%d) ok=%v, model freed=%v",
						seed, op, b.base, ok, b.freed)
				}
				if ok {
					b.freed = true
					for i := mir.Word(0); i < b.size; i++ {
						delete(model, b.base+i)
					}
				}
			case 3: // free a garbage address
				addr := randAddr()
				isBase := false
				for _, b := range blocks {
					if b.base == addr && !b.freed {
						isBase = true
					}
				}
				if got := mem.free(addr); got != isBase {
					t.Fatalf("seed %d op %d: free(%d) = %v, want %v", seed, op, addr, got, isBase)
				}
				if isBase {
					for i := range blocks {
						if blocks[i].base == addr {
							blocks[i].freed = true
							for j := mir.Word(0); j < blocks[i].size; j++ {
								delete(model, addr+j)
							}
						}
					}
				}
			case 4, 5, 6: // load
				addr := randAddr()
				want, valid := model[addr]
				got, ok := mem.load(addr)
				if ok != valid {
					t.Fatalf("seed %d op %d: load(%d) ok=%v, model valid=%v",
						seed, op, addr, ok, valid)
				}
				if ok && got != want {
					t.Fatalf("seed %d op %d: load(%d) = %d, want %d",
						seed, op, addr, got, want)
				}
			default: // store
				addr := randAddr()
				v := mir.Word(rng.Intn(1000))
				_, valid := model[addr]
				ok := mem.store(addr, v)
				if ok != valid {
					t.Fatalf("seed %d op %d: store(%d) ok=%v, model valid=%v",
						seed, op, addr, ok, valid)
				}
				if ok {
					model[addr] = v
				}
			}
		}
	}
}

// quick-check: a fresh allocation is zeroed, in bounds, above LowerBound,
// and adjacent allocations never overlap.
func TestQuickAllocProperties(t *testing.T) {
	mem := newMemory(&mir.Module{})
	var lastEnd mir.Word
	prop := func(rawSize uint8) bool {
		size := mir.Word(rawSize % 16)
		base := mem.alloc(size)
		if size < 1 {
			size = 1
		}
		if base <= LowerBound || base < lastEnd {
			return false
		}
		for i := mir.Word(0); i < size; i++ {
			v, ok := mem.load(base + i)
			if !ok || v != 0 {
				return false
			}
		}
		if _, ok := mem.load(base + size); ok {
			return false // guard word must not be readable
		}
		lastEnd = base + size
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// quick-check: snapshots are isolated from subsequent mutation.
func TestQuickSnapshotIsolation(t *testing.T) {
	prop := func(vals []int64) bool {
		if len(vals) == 0 {
			vals = []int64{1}
		}
		mem := newMemory(&mir.Module{Globals: []mir.Global{{Name: "g"}}})
		base := mem.alloc(mir.Word(len(vals)))
		for i, v := range vals {
			mem.store(base+mir.Word(i), v)
		}
		snap := mem.snapshot()
		for i := range vals {
			mem.store(base+mir.Word(i), -1)
		}
		mem.globals[0] = 99
		for i, v := range vals {
			got, ok := snap.load(base + mir.Word(i))
			if !ok || got != v {
				return false
			}
		}
		return snap.globals[0] == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestAllocHeapBound pins the heap bound: an allocation the heap cannot
// hold yields the null address, which dereferences as a segfault, and
// leaves the heap as it was, so smaller ones still succeed.
func TestAllocHeapBound(t *testing.T) {
	m := mir.MustParse("func main() {\nentry:\n  %p = alloc 9223372036854775807\n  %v = load %p\n  ret %v\n}\n")
	if r := RunModule(m, Config{}); r.Failure == nil || r.Failure.Kind != mir.FailSegfault {
		t.Fatalf("failure = %+v, want a segfault on the null address", r.Failure)
	}
	mem := newMemory(&mir.Module{})
	if p := mem.alloc(MaxHeapWords + 1); p != 0 {
		t.Errorf("oversized alloc = %d, want 0", p)
	}
	if p := mem.alloc(MaxHeapWords - 10); p != HeapBase {
		t.Errorf("alloc after a failed one = %d, want %d", p, HeapBase)
	}
	if p := mem.alloc(10); p != 0 {
		t.Errorf("alloc past the bound = %d, want 0", p)
	}
}
