package interp

import "conair/internal/mir"

// memory is the shared flat address space: globals at GlobalBase + index,
// heap blocks bump-allocated from HeapBase. Uninitialized heap words read
// as zero, which is how the order-violation reconstructions observe a
// shared pointer "before it is initialized".
type memory struct {
	globals []mir.Word
	blocks  []heapBlock // sorted by base (bump allocation keeps them sorted)
	nextAdr mir.Word
	// lastIdx caches the block hit by the previous findBlock. Heap access
	// is strongly block-local (a workload loop walks one buffer), so the
	// cache turns the common case into one bounds check instead of a
	// binary search. It is an index hint only: every hit revalidates
	// against the block's bounds, so staleness cannot change a result.
	lastIdx int
	// globalEnd is GlobalBase + len(globals), precomputed for the
	// load/store fast path.
	globalEnd mir.Word
}

type heapBlock struct {
	base  mir.Word
	data  []mir.Word
	freed bool
}

func newMemory(m *mir.Module) *memory {
	mem := &memory{
		globals:   make([]mir.Word, len(m.Globals)),
		nextAdr:   HeapBase,
		lastIdx:   -1,
		globalEnd: GlobalBase + mir.Word(len(m.Globals)),
	}
	for i, g := range m.Globals {
		mem.globals[i] = g.Init
	}
	return mem
}

// alloc creates a zeroed heap block of size words (minimum 1) and returns
// its base address, or the null address 0 when the heap cannot hold it.
func (mem *memory) alloc(size mir.Word) mir.Word {
	if size < 1 {
		size = 1
	}
	if size > HeapBase+MaxHeapWords-mem.nextAdr {
		return 0
	}
	b := heapBlock{base: mem.nextAdr, data: make([]mir.Word, size)}
	mem.blocks = append(mem.blocks, b)
	// Pad with one guard word so adjacent blocks never touch; dereferencing
	// one-past-the-end is then a fault rather than silent corruption.
	mem.nextAdr += size + 1
	return b.base
}

// free marks the block based at addr freed. Freeing an invalid or already
// freed address is reported by the second return value; double frees are a
// memory bug outside ConAir's scope, so the interpreter tolerates them.
func (mem *memory) free(addr mir.Word) bool {
	i := mem.findBlock(addr)
	if i < 0 || mem.blocks[i].base != addr || mem.blocks[i].freed {
		return false
	}
	mem.blocks[i].freed = true
	return true
}

// findBlock returns the index of the block containing addr, or -1. The
// last-hit cache short-circuits the binary search on block-local access
// patterns; a miss falls through to an open-coded binary search (manual
// rather than sort.Search so the comparison inlines).
func (mem *memory) findBlock(addr mir.Word) int {
	if i := mem.lastIdx; i >= 0 && i < len(mem.blocks) {
		b := &mem.blocks[i]
		if addr >= b.base && addr < b.base+mir.Word(len(b.data)) {
			return i
		}
	}
	// Binary search for the last block with base <= addr.
	lo, hi := 0, len(mem.blocks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if mem.blocks[mid].base > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return -1
	}
	b := &mem.blocks[lo-1]
	if addr < b.base+mir.Word(len(b.data)) {
		mem.lastIdx = lo - 1
		return lo - 1
	}
	return -1
}

// load reads the word at addr; ok is false on a segmentation fault
// (address at or below LowerBound, unmapped, or in a freed block).
func (mem *memory) load(addr mir.Word) (mir.Word, bool) {
	if addr <= LowerBound {
		return 0, false
	}
	if addr >= GlobalBase && addr < mem.globalEnd {
		return mem.globals[addr-GlobalBase], true
	}
	if i := mem.findBlock(addr); i >= 0 && !mem.blocks[i].freed {
		b := &mem.blocks[i]
		return b.data[addr-b.base], true
	}
	return 0, false
}

// store writes the word at addr; ok is false on a segmentation fault.
func (mem *memory) store(addr, v mir.Word) bool {
	if addr <= LowerBound {
		return false
	}
	if addr >= GlobalBase && addr < mem.globalEnd {
		mem.globals[addr-GlobalBase] = v
		return true
	}
	if i := mem.findBlock(addr); i >= 0 && !mem.blocks[i].freed {
		b := &mem.blocks[i]
		b.data[addr-b.base] = v
		return true
	}
	return false
}

// globalAddr returns the flat address of global index gi.
func globalAddr(gi int) mir.Word { return GlobalBase + mir.Word(gi) }

// snapshot deep-copies the memory; the whole-program-checkpoint baseline
// (Figure 4 ablation) uses it.
func (mem *memory) snapshot() *memory {
	cp := &memory{
		globals:   append([]mir.Word(nil), mem.globals...),
		blocks:    make([]heapBlock, len(mem.blocks)),
		nextAdr:   mem.nextAdr,
		lastIdx:   -1,
		globalEnd: mem.globalEnd,
	}
	for i, b := range mem.blocks {
		cp.blocks[i] = heapBlock{
			base:  b.base,
			data:  append([]mir.Word(nil), b.data...),
			freed: b.freed,
		}
	}
	return cp
}

// mutex is the lock state attached to an address used by lock/unlock.
type mutex struct {
	held   bool
	holder int // thread id when held
}

// locks tracks every address used as a mutex.
type locks struct {
	byAddr map[mir.Word]*mutex
}

func newLocks() *locks { return &locks{byAddr: map[mir.Word]*mutex{}} }

func (l *locks) get(addr mir.Word) *mutex {
	mu := l.byAddr[addr]
	if mu == nil {
		mu = &mutex{}
		l.byAddr[addr] = mu
	}
	return mu
}

// snapshot deep-copies lock state for the whole-program-checkpoint baseline.
func (l *locks) snapshot() *locks {
	cp := newLocks()
	for a, mu := range l.byAddr {
		c := *mu
		cp.byAddr[a] = &c
	}
	return cp
}
