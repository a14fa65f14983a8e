// Package sanitizertest holds the test oracle for package sanitizer. Only
// test files import it, so none of it ships in a command.
package sanitizertest

import (
	"fmt"

	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/sanitizer"
)

// Reference is the original map-based detector, kept as the trusted oracle
// for the epoch sanitizer.Sanitizer (the interp.RunReference pattern):
// per-address shadow state and release clocks in maps, a fresh copy of
// the releasing thread's clock per publish, and the quadratic deadlock
// pair scan in Finish. It is deliberately simple rather than fast, and it
// builds its reports itself, so the differential sweep pins the production
// Sanitizer's reports (wording included), truncation and access/sync
// counters to it on every trace.
type Reference struct {
	mod       *mir.Module
	reports   []sanitizer.Report
	raceSeen  map[raceKey]struct{}
	dlSeen    map[[2]mir.Word]struct{}
	truncated int64

	// clocks is the full happens-before vector clock per thread id;
	// fclocks tracks only fork/join edges and drives deadlock prediction.
	clocks  [][]int64
	fclocks [][]int64

	// lockRel holds each lock's release clock (the releasing thread's
	// clock at its latest unlock), joined into acquirers. cvRel, chRel and
	// casRel are the same mechanism for condvars, channels and cas words.
	lockRel map[mir.Word][]int64
	cvRel   map[mir.Word][]int64
	chRel   map[mir.Word][]int64
	casRel  map[mir.Word][]int64

	// held is each thread's current lock set in acquisition order.
	held map[int][]heldLock

	shadow map[mir.Word]*cell

	edges    []lockEdge
	edgeSeen map[edgeKey]struct{}

	accesses int64
	syncOps  int64
	finished bool
}

// NewReference returns the reference detector for a run of mod.
func NewReference(mod *mir.Module) *Reference {
	return &Reference{
		mod:      mod,
		raceSeen: map[raceKey]struct{}{},
		dlSeen:   map[[2]mir.Word]struct{}{},
		lockRel:  map[mir.Word][]int64{},
		cvRel:    map[mir.Word][]int64{},
		chRel:    map[mir.Word][]int64{},
		casRel:   map[mir.Word][]int64{},
		held:     map[int][]heldLock{},
		shadow:   map[mir.Word]*cell{},
		edgeSeen: map[edgeKey]struct{}{},
	}
}

var _ interp.Sanitizer = (*Reference)(nil)

func (s *Reference) thread(tid int) {
	for tid >= len(s.clocks) {
		s.clocks = append(s.clocks, nil)
		s.fclocks = append(s.fclocks, nil)
	}
	if s.clocks[tid] == nil {
		vc := make([]int64, tid+1)
		vc[tid] = 1
		s.clocks[tid] = vc
		fc := make([]int64, tid+1)
		fc[tid] = 1
		s.fclocks[tid] = fc
	}
}

// ThreadSpawn implements interp.Sanitizer.
func (s *Reference) ThreadSpawn(parent, child int) {
	s.syncOps++
	s.thread(child)
	if parent < 0 {
		return
	}
	s.thread(parent)
	joinVC(&s.clocks[child], s.clocks[parent])
	joinVC(&s.fclocks[child], s.fclocks[parent])
	s.clocks[parent][parent]++
	s.fclocks[parent][parent]++
}

// ThreadJoin implements interp.Sanitizer.
func (s *Reference) ThreadJoin(waiter, target int) {
	s.syncOps++
	s.thread(waiter)
	s.thread(target)
	joinVC(&s.clocks[waiter], s.clocks[target])
	joinVC(&s.fclocks[waiter], s.fclocks[target])
}

// LockRequest implements interp.Sanitizer.
func (s *Reference) LockRequest(tid int, addr mir.Word, timed bool, pos mir.Pos) {
	s.syncOps++
	s.thread(tid)
	s.recordEdges(tid, addr, timed, pos)
}

// LockAcquire implements interp.Sanitizer.
func (s *Reference) LockAcquire(tid int, addr mir.Word, timed bool, pos mir.Pos) {
	s.syncOps++
	s.thread(tid)
	if rel := s.lockRel[addr]; rel != nil {
		joinVC(&s.clocks[tid], rel)
	}
	s.recordEdges(tid, addr, timed, pos)
	s.held[tid] = append(s.held[tid], heldLock{addr: addr, timed: timed, pos: pos})
}

// LockRelease implements interp.Sanitizer.
func (s *Reference) LockRelease(tid int, addr mir.Word) {
	s.syncOps++
	s.thread(tid)
	s.lockRel[addr] = append(s.lockRel[addr][:0], s.clocks[tid]...)
	s.clocks[tid][tid]++
	hs := s.held[tid]
	for i := len(hs) - 1; i >= 0; i-- {
		if hs[i].addr == addr {
			s.held[tid] = append(hs[:i], hs[i+1:]...)
			break
		}
	}
}

func (s *Reference) recordEdges(tid int, addr mir.Word, timed bool, pos mir.Pos) {
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
		heldAt := make([]mir.Word, len(hs))
		for i, hh := range hs {
			heldAt[i] = hh.addr
		}
		s.edges = append(s.edges, lockEdge{
			from: h.addr, to: addr, tid: tid,
			timed:   timed || h.timed,
			fvc:     append([]int64(nil), s.fclocks[tid]...),
			heldAt:  heldAt,
			fromPos: h.pos, toPos: pos,
		})
	}
}

// CondSignal implements interp.Sanitizer.
func (s *Reference) CondSignal(tid int, cv mir.Word, broadcast bool, pos mir.Pos) {
	s.syncOps++
	s.thread(tid)
	s.cvRel[cv] = append(s.cvRel[cv][:0], s.clocks[tid]...)
	s.clocks[tid][tid]++
}

// CondWake implements interp.Sanitizer.
func (s *Reference) CondWake(tid int, cv mir.Word, pos mir.Pos) {
	s.syncOps++
	s.thread(tid)
	if rel := s.cvRel[cv]; rel != nil {
		joinVC(&s.clocks[tid], rel)
	}
}

// ChanSend implements interp.Sanitizer.
func (s *Reference) ChanSend(tid int, ch mir.Word, pos mir.Pos) {
	s.syncOps++
	s.thread(tid)
	s.chRel[ch] = append(s.chRel[ch][:0], s.clocks[tid]...)
	s.clocks[tid][tid]++
}

// ChanRecv implements interp.Sanitizer.
func (s *Reference) ChanRecv(tid int, ch mir.Word, pos mir.Pos) {
	s.syncOps++
	s.thread(tid)
	if rel := s.chRel[ch]; rel != nil {
		joinVC(&s.clocks[tid], rel)
	}
}

// ChanClose implements interp.Sanitizer.
func (s *Reference) ChanClose(tid int, ch mir.Word, pos mir.Pos) {
	s.ChanSend(tid, ch, pos)
}

// AtomicCAS implements interp.Sanitizer.
func (s *Reference) AtomicCAS(tid int, addr mir.Word, success bool, pos mir.Pos) {
	s.syncOps++
	s.thread(tid)
	if rel := s.casRel[addr]; rel != nil {
		joinVC(&s.clocks[tid], rel)
	}
	s.Access(tid, addr, false, pos)
	if success {
		s.Access(tid, addr, true, pos)
	}
	s.casRel[addr] = append(s.casRel[addr][:0], s.clocks[tid]...)
	s.clocks[tid][tid]++
}

// Access implements interp.Sanitizer.
func (s *Reference) Access(tid int, addr mir.Word, write bool, pos mir.Pos) {
	s.accesses++
	s.thread(tid)
	c := s.shadow[addr]
	if c == nil {
		c = &cell{}
		s.shadow[addr] = c
	}
	vc := s.clocks[tid]
	if write {
		if c.hasW && c.w.tid != tid && c.w.clk > at(vc, c.w.tid) {
			s.race(sanitizer.KindWriteWrite, addr, c.w, true, epoch{tid: tid, clk: vc[tid], pos: pos}, true)
		}
		for _, r := range c.reads {
			if r.tid != tid && r.clk > at(vc, r.tid) {
				s.race(sanitizer.KindReadWrite, addr, r, false, epoch{tid: tid, clk: vc[tid], pos: pos}, true)
			}
		}
		c.w = epoch{tid: tid, clk: vc[tid], pos: pos}
		c.hasW = true
		c.reads = c.reads[:0]
		return
	}
	if c.hasW && c.w.tid != tid && c.w.clk > at(vc, c.w.tid) {
		s.race(sanitizer.KindReadWrite, addr, c.w, true, epoch{tid: tid, clk: vc[tid], pos: pos}, false)
	}
	for i := range c.reads {
		if c.reads[i].tid == tid {
			c.reads[i] = epoch{tid: tid, clk: vc[tid], pos: pos}
			return
		}
	}
	c.reads = append(c.reads, epoch{tid: tid, clk: vc[tid], pos: pos})
}

// Finish runs the quadratic deadlock pair scan and freezes the report
// list; calling it twice is a no-op.
func (s *Reference) Finish() {
	if s.finished {
		return
	}
	s.finished = true
	for i := range s.edges {
		for j := i + 1; j < len(s.edges); j++ {
			e1, e2 := &s.edges[i], &s.edges[j]
			if e1.to != e2.from || e2.to != e1.from || e1.tid == e2.tid {
				continue
			}
			if e1.timed || e2.timed {
				continue
			}
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

// Reports returns the report list, finishing the analysis first.
func (s *Reference) Reports() []sanitizer.Report {
	s.Finish()
	return s.reports
}

// Accesses returns the number of shadow-checked memory accesses.
func (s *Reference) Accesses() int64 { return s.accesses }

// SyncOps returns the number of synchronization events observed.
func (s *Reference) SyncOps() int64 { return s.syncOps }

// Truncated reports how many reports were dropped past
// sanitizer.DefaultMaxReports.
func (s *Reference) Truncated() int64 { return s.truncated }

// heldLock is one lock in a thread's lock set.
type heldLock struct {
	addr  mir.Word
	timed bool
	pos   mir.Pos
}

// epoch is one access in shadow state: the accessing thread's own clock
// component at access time, plus the position for reporting.
type epoch struct {
	tid int
	clk int64
	pos mir.Pos
}

// cell is the per-address shadow state: the last write plus one read entry
// per thread (same-thread reads replace).
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

type raceKey struct {
	kind       sanitizer.Kind
	addr       mir.Word
	prior, cur mir.Pos
}

func joinVC(dst *[]int64, src []int64) {
	for len(*dst) < len(src) {
		*dst = append(*dst, 0)
	}
	for i, v := range src {
		if v > (*dst)[i] {
			(*dst)[i] = v
		}
	}
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

// concurrent reports whether neither clock happens before the other.
func concurrent(a, b []int64) bool { return !leq(a, b) && !leq(b, a) }

// gated reports whether the two edges' threads held a common third lock
// when they took their inner locks: that gate lock serializes the two
// acquisitions, so the inversion cannot deadlock.
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

// site renders pos as func:block:index using the module's function names.
func (s *Reference) site(pos mir.Pos) string {
	if s.mod != nil && pos.Fn >= 0 && pos.Fn < len(s.mod.Functions) {
		return fmt.Sprintf("%s:%d:%d", s.mod.Functions[pos.Fn].Name, pos.Block, pos.Index)
	}
	return pos.String()
}

// lockName names a lock address for reports.
func (s *Reference) lockName(addr mir.Word) string {
	if g := s.globalName(addr); g != "" {
		return g
	}
	return fmt.Sprintf("lock@%d", addr)
}

func (s *Reference) globalName(addr mir.Word) string {
	if s.mod == nil || addr < interp.GlobalBase {
		return ""
	}
	if gi := int(addr - interp.GlobalBase); gi < len(s.mod.Globals) {
		return s.mod.Globals[gi].Name
	}
	return ""
}

// race records a race report once per (kind, address, position pair),
// the pair taken in either order.
func (s *Reference) race(kind sanitizer.Kind, addr mir.Word, prior epoch, priorWrite bool, cur epoch, curWrite bool) {
	p1, p2 := prior.pos, cur.pos
	if p2.Less(p1) {
		p1, p2 = p2, p1
	}
	k := raceKey{kind: kind, addr: addr, prior: p1, cur: p2}
	if _, dup := s.raceSeen[k]; dup {
		return
	}
	s.raceSeen[k] = struct{}{}
	if len(s.reports) >= sanitizer.DefaultMaxReports {
		s.truncated++
		return
	}
	s.reports = append(s.reports, sanitizer.Report{
		Kind:   kind,
		Addr:   addr,
		Global: s.globalName(addr),
		First: sanitizer.Access{Thread: prior.tid, Write: priorWrite,
			Pos: prior.pos, Site: s.site(prior.pos)},
		Second: sanitizer.Access{Thread: cur.tid, Write: curWrite,
			Pos: cur.pos, Site: s.site(cur.pos)},
	})
}

// deadlock records an inversion report once per lock pair, LockA being
// the lock whose name sorts first and ThreadA the thread that took it
// before LockB.
func (s *Reference) deadlock(e1, e2 *lockEdge) {
	pair := [2]mir.Word{e1.from, e1.to}
	if pair[0] > pair[1] {
		pair[0], pair[1] = pair[1], pair[0]
	}
	if _, dup := s.dlSeen[pair]; dup {
		return
	}
	s.dlSeen[pair] = struct{}{}
	if len(s.reports) >= sanitizer.DefaultMaxReports {
		s.truncated++
		return
	}
	if s.lockName(e2.from) < s.lockName(e1.from) {
		e1, e2 = e2, e1
	}
	s.reports = append(s.reports, sanitizer.Report{
		Kind:    sanitizer.KindDeadlock,
		LockA:   s.lockName(e1.from),
		LockB:   s.lockName(e1.to),
		ThreadA: e1.tid, ThreadB: e2.tid,
		PosA: e1.toPos, PosB: e2.toPos,
		SiteA: s.site(e1.toPos), SiteB: s.site(e2.toPos),
	})
}
