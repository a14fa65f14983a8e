// Package sanitizer implements dynamic concurrency-bug detection over the
// interpreter's sanitizer hook (interp.Config.Sanitizer):
//
//   - a happens-before data-race detector: per-thread vector clocks
//     advanced on spawn, join and lock release→acquire edges, checked
//     against per-location read/write shadow state covering globals and
//     heap words;
//   - a lock-order deadlock predictor (Goodlock-style): lock-order edges
//     "held A while acquiring B" collected per thread, with inverted
//     pairs reported when the two acquisitions are concurrent under the
//     fork/join-only happens-before relation and share no gate lock.
//
// Detection is entirely passive: the sanitizer never mutates interpreter
// state, so a sanitized run is bit-identical to an unsanitized one.
//
// Race reports are sound for the observed schedule (no false positives on
// correctly synchronized programs); which races are observed depends on
// the schedule, which is why the experiment harness searches over PCT
// schedules. Deadlock reports are predictive: a lock-order inversion is
// reported even when the observed run did not actually deadlock, as long
// as fork/join ordering (the only ordering hardening preserves) does not
// rule the interleaving out. Cycles through timed acquisitions are not
// reported — a timed lock self-resolves, which is exactly how ConAir's
// hardening neutralizes a deadlock site.
//
// Sanitizer is the production detector, organized FastTrack-style for
// speed: shadow state for globals lives in a flat array indexed by global
// slot (the map survives only for heap addresses), owned-cell accesses
// resolve against the last-access epoch without touching any other
// thread's clock, release clocks live in one grow-only arena, and
// Reset(mod) recycles the whole structure across runs with zero
// steady-state allocation. The original map-based detector lives on as
// the differential-testing oracle sanitizertest.Reference, which only
// tests import; the two must produce identical reports on every trace.
package sanitizer

import (
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/obs"
)

// DefaultMaxReports bounds the report list; detection state keeps updating
// after the cap so clocks stay correct, but further reports are counted
// rather than stored.
const DefaultMaxReports = 100

// Sanitizer is the detector state for one interpreter run. Create with
// New, pass as interp.Config.Sanitizer, then call Finish (or Reports)
// after the run; Reset makes it reusable for the next run. Not safe for
// concurrent use; the interpreter is a single-goroutine VM, so the hooks
// are naturally serialized.
type Sanitizer struct {
	reporter

	// clocks is the full happens-before vector clock per thread id
	// (spawn, join, and lock release→acquire edges). fclocks tracks only
	// fork/join edges — the ordering that is schedule-independent — and
	// drives deadlock prediction. A zero-length clock marks a thread id
	// not yet announced this run; capacity persists across Reset.
	clocks  [][]int64
	fclocks [][]int64

	// rel holds the release clocks for the four publish/join channels
	// (lock release→acquire, condvar signal→wake, channel send→recv,
	// cas→cas). Each class splits global addresses into a flat
	// slot-indexed slice and keeps a map only for heap addresses; the
	// clock words themselves live in the shared arena.
	rel   [relClasses]relClass
	arena []int64

	// held is each thread's current lock set in acquisition order,
	// indexed by tid (grown alongside clocks).
	held [][]heldLock

	// gshadow is the flat per-global shadow state, indexed by global
	// slot; hshadow covers heap addresses. freeCells recycles heap cells
	// across Reset so a steady-state run allocates nothing.
	gshadow   []cell
	globalEnd mir.Word
	hshadow   map[mir.Word]*cell
	freeCells []*cell

	edges    []lockEdge
	edgeSeen map[edgeKey]struct{}

	// dlHead/dlNext index edges by (from,to) for Finish: dlHead holds the
	// first edge index+1 per pair, dlNext chains the rest in ascending
	// edge order (0 terminates).
	dlHead map[[2]mir.Word]int32
	dlNext []int32

	accesses int64
	syncOps  int64
	fastHits int64
	vcJoins  int64
	finished bool
}

// New returns a sanitizer for a run of mod; the module is used only to
// resolve global names and positions in reports.
func New(mod *mir.Module) *Sanitizer {
	s := &Sanitizer{}
	s.MaxReports = DefaultMaxReports
	s.Reset(mod)
	return s
}

var _ interp.Sanitizer = (*Sanitizer)(nil)

// relClass indices into Sanitizer.rel.
const (
	relLock = iota
	relCond
	relChan
	relCAS
	relClasses
)

// relRef locates one address's release clock inside the arena. n is the
// live clock length (0 = never published); cap is the region size, with
// slack so a republish after a few thread spawns stays in place.
type relRef struct {
	off, n, cap int32
}

// relClass is one publish/join channel's release-clock directory.
type relClass struct {
	glob []relRef // by global slot
	heap map[mir.Word]relRef
}

func (c *relClass) reset(nglobals int) {
	if cap(c.glob) < nglobals {
		c.glob = make([]relRef, nglobals)
	} else {
		c.glob = c.glob[:nglobals]
		for i := range c.glob {
			c.glob[i] = relRef{}
		}
	}
	if c.heap == nil {
		c.heap = map[mir.Word]relRef{}
	} else {
		clear(c.heap)
	}
}

type heldLock struct {
	addr  mir.Word
	timed bool
	pos   mir.Pos
}

// epoch is one access in shadow state: the acquiring thread's own clock
// component at access time, plus the position for reporting.
type epoch struct {
	tid int
	clk int64
	pos mir.Pos
}

// cell is the per-address shadow state: the last write plus one read entry
// per thread (same-thread reads replace, bounding growth at thread count).
type cell struct {
	w     epoch
	reads []epoch
	hasW  bool
}

// lockEdge records "tid held from while acquiring to". fvc snapshots the
// thread's fork/join clock and heldAt its lock set at that moment.
type lockEdge struct {
	from, to       mir.Word
	tid            int
	timed          bool
	fvc            []int64
	heldAt         []mir.Word
	fromPos, toPos mir.Pos
}

type edgeKey struct {
	from, to mir.Word
	tid      int
}

// Reset clears the sanitizer for a fresh run of mod, reusing every slice
// capacity, map bucket, arena region and recycled heap cell from previous
// runs. After the first run of a program shape, subsequent Reset+run
// cycles are allocation-free, which is what lets SanitizeSearch drive one
// pooled sanitizer across an entire seed sweep.
func (s *Sanitizer) Reset(mod *mir.Module) {
	nglobals := 0
	if mod != nil {
		nglobals = len(mod.Globals)
	}
	s.resetReports(mod)
	s.globalEnd = interp.GlobalBase + mir.Word(nglobals)

	for i := range s.clocks {
		s.clocks[i] = s.clocks[i][:0]
		s.fclocks[i] = s.fclocks[i][:0]
		s.held[i] = s.held[i][:0]
	}

	if cap(s.gshadow) < nglobals {
		s.gshadow = make([]cell, nglobals)
	} else {
		s.gshadow = s.gshadow[:nglobals]
		for i := range s.gshadow {
			s.gshadow[i].hasW = false
			s.gshadow[i].reads = s.gshadow[i].reads[:0]
		}
	}
	if s.hshadow == nil {
		s.hshadow = map[mir.Word]*cell{}
	} else {
		for _, c := range s.hshadow {
			c.hasW = false
			c.reads = c.reads[:0]
			s.freeCells = append(s.freeCells, c)
		}
		clear(s.hshadow)
	}

	s.arena = s.arena[:0]
	for i := range s.rel {
		s.rel[i].reset(nglobals)
	}

	s.edges = s.edges[:0]
	if s.edgeSeen == nil {
		s.edgeSeen = map[edgeKey]struct{}{}
	} else {
		clear(s.edgeSeen)
	}
	clear(s.dlHead)
	s.dlNext = s.dlNext[:0]

	s.accesses, s.syncOps = 0, 0
	s.fastHits, s.vcJoins = 0, 0
	s.finished = false
}

// ---------------------------------------------------------------- clocks

func (s *Sanitizer) thread(tid int) {
	for tid >= len(s.clocks) {
		s.clocks = append(s.clocks, nil)
		s.fclocks = append(s.fclocks, nil)
		s.held = append(s.held, nil)
	}
	if len(s.clocks[tid]) == 0 {
		s.clocks[tid] = initClock(s.clocks[tid], tid)
		s.fclocks[tid] = initClock(s.fclocks[tid], tid)
	}
}

// initClock reuses vc's capacity for a fresh clock with vc[tid] = 1.
func initClock(vc []int64, tid int) []int64 {
	if cap(vc) < tid+1 {
		vc = make([]int64, tid+1)
	} else {
		vc = vc[:tid+1]
		for i := range vc {
			vc[i] = 0
		}
	}
	vc[tid] = 1
	return vc
}

// joinVC merges src into *dst pointwise (dst grows as needed).
func joinVC(dst *[]int64, src []int64) {
	d := *dst
	for len(d) < len(src) {
		d = append(d, 0)
	}
	for i, v := range src {
		if v > d[i] {
			d[i] = v
		}
	}
	*dst = d
}

func at(vc []int64, tid int) int64 {
	if tid < len(vc) {
		return vc[tid]
	}
	return 0
}

// leq reports a ≤ b pointwise.
func leq(a, b []int64) bool {
	for i, v := range a {
		if v > at(b, i) {
			return false
		}
	}
	return true
}

// concurrent reports that neither clock happens-before the other.
func concurrent(a, b []int64) bool { return !leq(a, b) && !leq(b, a) }

// ------------------------------------------------------- release clocks

// store copies vc into ref's arena region, moving to a fresh tail region
// only when the clock outgrew it (threads spawned since the last publish).
// Republishing in place is what makes steady-state release tracking
// allocation-free where the reference copies a slice per publish.
func (s *Sanitizer) store(ref relRef, vc []int64) relRef {
	n := int32(len(vc))
	if n > ref.cap {
		ref.off = int32(len(s.arena))
		ref.cap = n + 8 // slack so a few late spawns don't force a move
		if need := len(s.arena) + int(ref.cap); need <= cap(s.arena) {
			s.arena = s.arena[:need]
		} else {
			s.arena = append(s.arena, make([]int64, ref.cap)...)
		}
	}
	ref.n = n
	copy(s.arena[ref.off:int(ref.off)+int(n)], vc)
	return ref
}

func (s *Sanitizer) publish(class int, addr mir.Word, vc []int64) {
	c := &s.rel[class]
	if addr >= interp.GlobalBase && addr < s.globalEnd {
		gi := int(addr - interp.GlobalBase)
		c.glob[gi] = s.store(c.glob[gi], vc)
		return
	}
	c.heap[addr] = s.store(c.heap[addr], vc)
}

// relClock returns the published release clock for addr, or nil.
func (s *Sanitizer) relClock(class int, addr mir.Word) []int64 {
	c := &s.rel[class]
	var ref relRef
	if addr >= interp.GlobalBase && addr < s.globalEnd {
		ref = c.glob[addr-interp.GlobalBase]
	} else {
		ref = c.heap[addr]
	}
	if ref.n == 0 {
		return nil
	}
	return s.arena[ref.off : ref.off+ref.n]
}

// acquireRel joins addr's release clock (if any) into tid's clock.
func (s *Sanitizer) acquireRel(class int, tid int, addr mir.Word) {
	if rel := s.relClock(class, addr); rel != nil {
		s.vcJoins++
		joinVC(&s.clocks[tid], rel)
	}
}

// ------------------------------------------------------------------ hooks

// ThreadSpawn implements interp.Sanitizer.
func (s *Sanitizer) ThreadSpawn(parent, child int) {
	s.syncOps++
	s.thread(child)
	if parent < 0 {
		return
	}
	s.thread(parent)
	s.vcJoins += 2
	joinVC(&s.clocks[child], s.clocks[parent])
	joinVC(&s.fclocks[child], s.fclocks[parent])
	// Advance the parent past the fork so the child is ordered after the
	// parent's pre-fork effects but concurrent with its post-fork ones.
	s.clocks[parent][parent]++
	s.fclocks[parent][parent]++
}

// ThreadJoin implements interp.Sanitizer.
func (s *Sanitizer) ThreadJoin(waiter, target int) {
	s.syncOps++
	s.thread(waiter)
	s.thread(target)
	s.vcJoins += 2
	joinVC(&s.clocks[waiter], s.clocks[target])
	joinVC(&s.fclocks[waiter], s.fclocks[target])
}

// LockRequest implements interp.Sanitizer: a blocking acquisition attempt.
// Lock-order edges are recorded here as well as on success so that a run
// dying inside an actual deadlock still carries both cycle edges.
func (s *Sanitizer) LockRequest(tid int, addr mir.Word, timed bool, pos mir.Pos) {
	s.syncOps++
	s.thread(tid)
	s.recordEdges(tid, addr, timed, pos)
}

// LockAcquire implements interp.Sanitizer.
func (s *Sanitizer) LockAcquire(tid int, addr mir.Word, timed bool, pos mir.Pos) {
	s.syncOps++
	s.thread(tid)
	s.acquireRel(relLock, tid, addr)
	s.recordEdges(tid, addr, timed, pos)
	s.held[tid] = append(s.held[tid], heldLock{addr: addr, timed: timed, pos: pos})
}

// LockRelease implements interp.Sanitizer. Covers both regular unlocks and
// rollback's compensation releases.
func (s *Sanitizer) LockRelease(tid int, addr mir.Word) {
	s.syncOps++
	s.thread(tid)
	s.publish(relLock, addr, s.clocks[tid])
	s.clocks[tid][tid]++
	hs := s.held[tid]
	for i := len(hs) - 1; i >= 0; i-- {
		if hs[i].addr == addr {
			s.held[tid] = append(hs[:i], hs[i+1:]...)
			break
		}
	}
}

func (s *Sanitizer) recordEdges(tid int, addr mir.Word, timed bool, pos mir.Pos) {
	hs := s.held[tid]
	if len(hs) == 0 {
		return
	}
	for _, h := range hs {
		if h.addr == addr {
			continue
		}
		k := edgeKey{from: h.addr, to: addr, tid: tid}
		if _, dup := s.edgeSeen[k]; dup {
			continue
		}
		s.edgeSeen[k] = struct{}{}
		e := s.newEdge()
		e.from, e.to, e.tid = h.addr, addr, tid
		e.timed = timed || h.timed
		e.fvc = append(e.fvc[:0], s.fclocks[tid]...)
		e.heldAt = e.heldAt[:0]
		for _, hh := range hs {
			e.heldAt = append(e.heldAt, hh.addr)
		}
		e.fromPos, e.toPos = h.pos, pos
	}
}

// newEdge appends an edge slot, recycling the fvc/heldAt capacity of a
// slot retired by an earlier Reset when one is available.
func (s *Sanitizer) newEdge() *lockEdge {
	n := len(s.edges)
	if n < cap(s.edges) {
		s.edges = s.edges[:n+1]
	} else {
		s.edges = append(s.edges, lockEdge{})
	}
	return &s.edges[n]
}

// CondSignal implements interp.Sanitizer: a signal or broadcast publishes
// the signaller's clock on the condvar. The clock is stored even when no
// waiter consumes it (the interpreter cannot know which wait will), a
// deliberate over-approximation: a wait-return may join the clock of a
// signal it did not consume, which can only add ordering — fewer false
// positives, never more.
func (s *Sanitizer) CondSignal(tid int, cv mir.Word, broadcast bool, pos mir.Pos) {
	s.syncOps++
	s.thread(tid)
	s.publish(relCond, cv, s.clocks[tid])
	s.clocks[tid][tid]++
}

// CondWake implements interp.Sanitizer: a wait that consumed a signal is
// ordered after the signaller — the signal→wait-return edge.
func (s *Sanitizer) CondWake(tid int, cv mir.Word, pos mir.Pos) {
	s.syncOps++
	s.thread(tid)
	s.acquireRel(relCond, tid, cv)
}

// ChanSend implements interp.Sanitizer: a completed send publishes the
// sender's clock on the channel (the send→recv edge's release half).
func (s *Sanitizer) ChanSend(tid int, ch mir.Word, pos mir.Pos) {
	s.syncOps++
	s.thread(tid)
	s.publish(relChan, ch, s.clocks[tid])
	s.clocks[tid][tid]++
}

// ChanRecv implements interp.Sanitizer: a completed receive joins the
// channel's release clock — including a zero-value receive from a closed,
// drained channel, which is ordered after the close.
func (s *Sanitizer) ChanRecv(tid int, ch mir.Word, pos mir.Pos) {
	s.syncOps++
	s.thread(tid)
	s.acquireRel(relChan, tid, ch)
}

// ChanClose implements interp.Sanitizer: close publishes like a send.
func (s *Sanitizer) ChanClose(tid int, ch mir.Word, pos mir.Pos) {
	s.ChanSend(tid, ch, pos)
}

// AtomicCAS implements interp.Sanitizer. The acquire half joins the
// address's CAS release clock BEFORE the shadow check, so two cas
// operations on the same word are always ordered (atomics never race with
// atomics); the shadow check then still catches a plain load or store
// racing the cas. Failed cas operations publish too — they are atomic
// loads, and ordering atomics totally costs nothing in precision.
func (s *Sanitizer) AtomicCAS(tid int, addr mir.Word, success bool, pos mir.Pos) {
	s.syncOps++
	s.thread(tid)
	s.acquireRel(relCAS, tid, addr)
	s.Access(tid, addr, false, pos)
	if success {
		s.Access(tid, addr, true, pos)
	}
	s.publish(relCAS, addr, s.clocks[tid])
	s.clocks[tid][tid]++
}

// cellFor returns addr's shadow cell: globals resolve to the flat array
// by slot, heap addresses through the map (recycling retired cells).
func (s *Sanitizer) cellFor(addr mir.Word) *cell {
	if addr >= interp.GlobalBase && addr < s.globalEnd {
		return &s.gshadow[addr-interp.GlobalBase]
	}
	c := s.hshadow[addr]
	if c == nil {
		if n := len(s.freeCells); n > 0 {
			c = s.freeCells[n-1]
			s.freeCells = s.freeCells[:n-1]
		} else {
			c = &cell{}
		}
		s.hshadow[addr] = c
	}
	return c
}

// Access implements interp.Sanitizer. The fast path is FastTrack's
// same-epoch/owned-cell case: when the cell's prior write (and for writes,
// its read set) belongs to the accessing thread, no other thread's clock
// entry is consulted — the access resolves against the stored epoch in
// O(1). Cross-thread state falls through to the full happens-before
// comparison, which emits exactly the reports the reference detector
// (sanitizertest.Reference) would.
func (s *Sanitizer) Access(tid int, addr mir.Word, write bool, pos mir.Pos) {
	s.accesses++
	if tid >= len(s.clocks) || len(s.clocks[tid]) == 0 {
		s.thread(tid)
	}
	c := s.cellFor(addr)
	vc := s.clocks[tid]
	clk := vc[tid]
	if write {
		fast := true
		if c.hasW && c.w.tid != tid {
			fast = false
			if c.w.clk > at(vc, c.w.tid) {
				s.race(KindWriteWrite, addr, c.w, true, epoch{tid: tid, clk: clk, pos: pos}, true)
			}
		}
		switch {
		case len(c.reads) == 0:
			// no reads to check
		case len(c.reads) == 1 && c.reads[0].tid == tid:
			c.reads = c.reads[:0]
		default:
			fast = false
			for _, r := range c.reads {
				if r.tid != tid && r.clk > at(vc, r.tid) {
					s.race(KindReadWrite, addr, r, false, epoch{tid: tid, clk: clk, pos: pos}, true)
				}
			}
			c.reads = c.reads[:0]
		}
		if fast {
			s.fastHits++
		}
		c.w = epoch{tid: tid, clk: clk, pos: pos}
		c.hasW = true
		return
	}
	if c.hasW && c.w.tid != tid {
		if c.w.clk > at(vc, c.w.tid) {
			s.race(KindReadWrite, addr, c.w, true, epoch{tid: tid, clk: clk, pos: pos}, false)
		}
	} else {
		s.fastHits++
	}
	for i := range c.reads {
		if c.reads[i].tid == tid {
			c.reads[i] = epoch{tid: tid, clk: clk, pos: pos}
			return
		}
	}
	c.reads = append(c.reads, epoch{tid: tid, clk: clk, pos: pos})
}

// ----------------------------------------------------------------- finish

// Finish runs end-of-trace analyses (the deadlock predictor) and freezes
// the report list. Reports calls it implicitly; calling it twice is a
// no-op.
//
// Candidate partners are indexed by (to,from): an edge pair can only form
// an inversion when e2's lock pair is e1's reversed, so each edge scans
// just the edges sharing its reversed key instead of the whole list —
// linear in edges plus inspected pairs where the reference is O(E²). The
// chains preserve ascending edge order, so the surviving (i,j) pairs are
// enumerated in exactly the reference's order and report dedup picks the
// same winners.
func (s *Sanitizer) Finish() {
	if s.finished {
		return
	}
	s.finished = true
	if len(s.edges) == 0 {
		return
	}
	if s.dlHead == nil {
		s.dlHead = map[[2]mir.Word]int32{}
	}
	if cap(s.dlNext) < len(s.edges) {
		s.dlNext = make([]int32, len(s.edges))
	} else {
		s.dlNext = s.dlNext[:len(s.edges)]
	}
	// Prepend in reverse so each (from,to) chain lists edge indices
	// ascending; entries store index+1 with 0 terminating.
	for i := len(s.edges) - 1; i >= 0; i-- {
		k := [2]mir.Word{s.edges[i].from, s.edges[i].to}
		s.dlNext[i] = s.dlHead[k]
		s.dlHead[k] = int32(i + 1)
	}
	for i := range s.edges {
		e1 := &s.edges[i]
		for j := s.dlHead[[2]mir.Word{e1.to, e1.from}]; j != 0; j = s.dlNext[j-1] {
			if int(j-1) <= i {
				continue
			}
			e2 := &s.edges[j-1]
			if e1.tid == e2.tid {
				continue
			}
			if e1.timed || e2.timed {
				continue // a timed acquisition self-resolves; no deadlock
			}
			// Fork/join ordering is schedule-independent: if one edge
			// must happen before the other, no schedule interleaves them.
			if !concurrent(e1.fvc, e2.fvc) {
				continue
			}
			if gated(e1, e2) {
				continue
			}
			s.deadlock(e1, e2)
		}
	}
}

// gated reports whether a common gate lock (held by both threads, distinct
// from the inverted pair) serializes the two acquisition sequences.
func gated(e1, e2 *lockEdge) bool {
	for _, a := range e1.heldAt {
		if a == e1.from || a == e1.to {
			continue
		}
		for _, b := range e2.heldAt {
			if a == b {
				return true
			}
		}
	}
	return false
}

// Reports returns the report list, finishing the analysis first.
func (s *Sanitizer) Reports() []Report {
	s.Finish()
	return s.reports
}

// Accesses returns the number of shadow-checked memory accesses.
func (s *Sanitizer) Accesses() int64 { return s.accesses }

// SyncOps returns the number of synchronization events observed.
func (s *Sanitizer) SyncOps() int64 { return s.syncOps }

// FastPathHits returns how many accesses resolved on the owned-cell epoch
// fast path (no other thread's clock entry consulted).
func (s *Sanitizer) FastPathHits() int64 { return s.fastHits }

// VCJoins returns how many full vector-clock join operations the run
// performed (spawn/join edges plus release-clock acquisitions).
func (s *Sanitizer) VCJoins() int64 { return s.vcJoins }

// RecordMetrics adds this run's sanitizer counters to reg, for the
// -metrics exposition and the experiment registry.
func (s *Sanitizer) RecordMetrics(reg *obs.Registry) {
	s.Finish()
	var races, deadlocks int64
	for _, r := range s.reports {
		if r.Kind == KindDeadlock {
			deadlocks++
		} else {
			races++
		}
	}
	reg.Counter("sanitizer_runs_total").Inc()
	reg.Counter("sanitizer_reports_total").Add(races + deadlocks + s.truncated)
	reg.Counter("sanitizer_races_total").Add(races)
	reg.Counter("sanitizer_deadlocks_total").Add(deadlocks)
	reg.Counter("sanitizer_accesses_total").Add(s.accesses)
	reg.Counter("sanitizer_sync_ops_total").Add(s.syncOps)
	reg.Counter("sanitizer_fastpath_hits_total").Add(s.fastHits)
	reg.Counter("sanitizer_vc_joins_total").Add(s.vcJoins)
}
