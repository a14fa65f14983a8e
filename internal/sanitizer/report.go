package sanitizer

import (
	"fmt"
	"strings"

	"conair/internal/interp"
	"conair/internal/mir"
)

// Kind classifies a sanitizer report.
type Kind int

const (
	// KindWriteWrite is a write-write data race: two unordered writes to
	// the same location from different threads.
	KindWriteWrite Kind = iota
	// KindReadWrite is a read-write data race: an unordered read/write
	// pair on the same location from different threads.
	KindReadWrite
	// KindDeadlock is a predicted lock-order inversion: two threads
	// acquire the same pair of locks in opposite order with no
	// fork/join ordering or gate lock ruling the interleaving out.
	KindDeadlock
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindWriteWrite:
		return "write-write race"
	case KindReadWrite:
		return "read-write race"
	case KindDeadlock:
		return "deadlock inversion"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Access is one side of a race report.
type Access struct {
	Thread int
	Write  bool
	Pos    mir.Pos
	// Site is the human-readable position "func:block:index".
	Site string
}

// Report is one sanitizer finding.
type Report struct {
	Kind Kind

	// Race fields (KindWriteWrite, KindReadWrite).
	Addr   mir.Word
	Global string // global name when Addr is a global, else ""
	First  Access // earlier access in trace order
	Second Access

	// Deadlock fields (KindDeadlock). LockA/LockB name the inverted pair
	// (global name or address); ThreadA acquired A then B, ThreadB the
	// reverse. PosA/PosB are the inner (second) acquisition sites.
	LockA, LockB     string
	ThreadA, ThreadB int
	PosA, PosB       mir.Pos
	SiteA, SiteB     string
}

// Location names the racy address: the global's name, or "heap@addr".
func (r Report) Location() string {
	if r.Global != "" {
		return r.Global
	}
	return fmt.Sprintf("heap@%d", r.Addr)
}

// String renders the report on one line.
func (r Report) String() string {
	if r.Kind == KindDeadlock {
		return fmt.Sprintf("%s: thread %d takes %s then %s at %s; thread %d takes %s then %s at %s",
			r.Kind, r.ThreadA, r.LockA, r.LockB, r.SiteA,
			r.ThreadB, r.LockB, r.LockA, r.SiteB)
	}
	return fmt.Sprintf("%s on %s: %s by thread %d at %s vs %s by thread %d at %s",
		r.Kind, r.Location(),
		rw(r.First.Write), r.First.Thread, r.First.Site,
		rw(r.Second.Write), r.Second.Thread, r.Second.Site)
}

func rw(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// reporter is the Sanitizer's report-emission state: dedup sets, the
// capped report list, and the module used to resolve names and positions.
type reporter struct {
	// MaxReports caps stored reports (default DefaultMaxReports).
	MaxReports int

	mod *mir.Module

	reports   []Report
	raceSeen  map[raceKey]struct{}
	dlSeen    map[[2]mir.Word]struct{}
	truncated int64
}

type raceKey struct {
	kind       Kind
	addr       mir.Word
	prior, cur mir.Pos
}

// resetReports clears the emission state in place, keeping map buckets and
// slice capacity for reuse.
func (s *reporter) resetReports(mod *mir.Module) {
	s.mod = mod
	s.reports = s.reports[:0]
	if s.raceSeen == nil {
		s.raceSeen = map[raceKey]struct{}{}
	} else {
		clear(s.raceSeen)
	}
	if s.dlSeen == nil {
		s.dlSeen = map[[2]mir.Word]struct{}{}
	} else {
		clear(s.dlSeen)
	}
	s.truncated = 0
}

// site renders pos as func:block:index using the module's function names.
func (s *reporter) site(pos mir.Pos) string {
	if s.mod != nil && pos.Fn >= 0 && pos.Fn < len(s.mod.Functions) {
		return fmt.Sprintf("%s:%d:%d", s.mod.Functions[pos.Fn].Name, pos.Block, pos.Index)
	}
	return pos.String()
}

// lockName names a lock address for reports.
func (s *reporter) lockName(addr mir.Word) string {
	if g := s.globalName(addr); g != "" {
		return g
	}
	return fmt.Sprintf("lock@%d", addr)
}

func (s *reporter) globalName(addr mir.Word) string {
	if s.mod == nil || addr < interp.GlobalBase {
		return ""
	}
	gi := int(addr - interp.GlobalBase)
	if gi < len(s.mod.Globals) {
		return s.mod.Globals[gi].Name
	}
	return ""
}

func (s *reporter) race(kind Kind, addr mir.Word, prior epoch, priorWrite bool, cur epoch, curWrite bool) {
	// Normalize the position pair so the same racy pair discovered in
	// either order dedupes to one report.
	p1, p2 := prior.pos, cur.pos
	if p2.Less(p1) {
		p1, p2 = p2, p1
	}
	k := raceKey{kind: kind, addr: addr, prior: p1, cur: p2}
	if _, dup := s.raceSeen[k]; dup {
		return
	}
	s.raceSeen[k] = struct{}{}
	if len(s.reports) >= s.maxReports() {
		s.truncated++
		return
	}
	s.reports = append(s.reports, Report{
		Kind:   kind,
		Addr:   addr,
		Global: s.globalName(addr),
		First: Access{Thread: prior.tid, Write: priorWrite,
			Pos: prior.pos, Site: s.site(prior.pos)},
		Second: Access{Thread: cur.tid, Write: curWrite,
			Pos: cur.pos, Site: s.site(cur.pos)},
	})
}

func (s *reporter) deadlock(e1, e2 *lockEdge) {
	// Normalize the pair so each inverted lock pair is reported once no
	// matter how many threads exhibit it.
	pair := [2]mir.Word{e1.from, e1.to}
	if pair[0] > pair[1] {
		pair[0], pair[1] = pair[1], pair[0]
	}
	if _, dup := s.dlSeen[pair]; dup {
		return
	}
	s.dlSeen[pair] = struct{}{}
	if len(s.reports) >= s.maxReports() {
		s.truncated++
		return
	}
	// Order the pair by lock name so the same inversion reports the same
	// way no matter which thread's edge was recorded first. Swapping the
	// edges keeps the report consistent: ThreadA is always the thread that
	// acquired LockA before LockB.
	if s.lockName(e2.from) < s.lockName(e1.from) {
		e1, e2 = e2, e1
	}
	s.reports = append(s.reports, Report{
		Kind:    KindDeadlock,
		LockA:   s.lockName(e1.from),
		LockB:   s.lockName(e1.to),
		ThreadA: e1.tid, ThreadB: e2.tid,
		PosA: e1.toPos, PosB: e2.toPos,
		SiteA: s.site(e1.toPos), SiteB: s.site(e2.toPos),
	})
}

func (s *reporter) maxReports() int {
	if s.MaxReports > 0 {
		return s.MaxReports
	}
	return DefaultMaxReports
}

// Truncated reports how many reports were dropped past MaxReports.
func (s *reporter) Truncated() int64 { return s.truncated }

// splitKind filters a finished report list by race/deadlock.
func splitKind(reports []Report, deadlocks bool) []Report {
	var out []Report
	for _, r := range reports {
		if (r.Kind == KindDeadlock) == deadlocks {
			out = append(out, r)
		}
	}
	return out
}

// Races returns the race reports (finishing the analysis).
func (s *Sanitizer) Races() []Report { return splitKind(s.Reports(), false) }

// Deadlocks returns the deadlock reports (finishing the analysis).
func (s *Sanitizer) Deadlocks() []Report { return splitKind(s.Reports(), true) }

// Verdict summarizes a report set as a compact cell for tables:
// "none", "race(counter)", "deadlock(la,lb)", with "[+N]" appended when
// further reports exist beyond the one shown. Deadlocks take precedence
// over races since they name the bug class ConAir treats specially.
func Verdict(reports []Report) string {
	if len(reports) == 0 {
		return "none"
	}
	var pick Report
	found := false
	for _, r := range reports {
		if r.Kind == KindDeadlock {
			pick, found = r, true
			break
		}
	}
	if !found {
		pick = reports[0]
	}
	var b strings.Builder
	if pick.Kind == KindDeadlock {
		fmt.Fprintf(&b, "deadlock(%s,%s)", pick.LockA, pick.LockB)
	} else {
		fmt.Fprintf(&b, "race(%s)", pick.Location())
	}
	if len(reports) > 1 {
		fmt.Fprintf(&b, "[+%d]", len(reports)-1)
	}
	return b.String()
}
