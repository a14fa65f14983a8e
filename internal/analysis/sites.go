// Package analysis implements ConAir's static analyses: failure-site
// identification (paper §3.1), idempotent reexecution-region and
// reexecution-point identification (§3.2), the simplified backward slicing
// (§4.2, Figure 8), the pruning of statically-unrecoverable failure sites
// (§4.2), and inter-procedural recovery selection (§4.3).
package analysis

import (
	"fmt"

	"conair/internal/mir"
)

// SiteKind classifies failure sites by the failure symptom they guard
// (paper Figure 5 a–d).
type SiteKind uint8

// Failure-site kinds.
const (
	SiteAssert SiteKind = iota
	SiteWrongOutput
	SiteSegfault
	SiteDeadlock
)

var siteKindNames = [...]string{
	SiteAssert:      "assertion-violation",
	SiteWrongOutput: "wrong-output",
	SiteSegfault:    "segmentation-fault",
	SiteDeadlock:    "deadlock",
}

// String names the kind as used in Table 4.
func (k SiteKind) String() string {
	if int(k) < len(siteKindNames) {
		return siteKindNames[k]
	}
	return fmt.Sprintf("sitekind(%d)", uint8(k))
}

// IsDeadlock reports whether the site uses the deadlock recovery rule.
func (k SiteKind) IsDeadlock() bool { return k == SiteDeadlock }

// Site is one (potential) failure site.
type Site struct {
	// ID is assigned densely from 1 in identification order; 0 is never a
	// valid site id (the interpreter uses 0 for "untagged").
	ID   int
	Kind SiteKind
	Pos  mir.Pos
	// Op is the opcode of the instruction at Pos. Sites of one kind can
	// come from different instructions (a deadlock site is a lock, a wait
	// or a chsend; a segfault site is a load, a store or a cas), and both
	// the pruning rules and the hardening rewrite dispatch on it.
	Op mir.Op
	// HasOracle is set on wrong-output sites that carry a developer
	// output-correctness condition (an oracle assert). Only those can be
	// recovered (§6.5); plain output sites are counted in the census and
	// get reexecution points, modeling the paper's worst-case overhead
	// measurement, but no recovery branch can be planted.
	HasOracle bool
}

// Recoverable reports whether recovery code can be planted at the site at
// all (before any pruning): wrong-output sites need an oracle.
func (s *Site) Recoverable() bool {
	return s.Kind != SiteWrongOutput || s.HasOracle
}

// Census counts sites by kind — one row of Table 4.
type Census struct {
	Assert, WrongOutput, Segfault, Deadlock int
}

// Total sums the census.
func (c Census) Total() int {
	return c.Assert + c.WrongOutput + c.Segfault + c.Deadlock
}

// Add counts a site.
func (c *Census) Add(k SiteKind) {
	switch k {
	case SiteAssert:
		c.Assert++
	case SiteWrongOutput:
		c.WrongOutput++
	case SiteSegfault:
		c.Segfault++
	case SiteDeadlock:
		c.Deadlock++
	}
}

// IdentifySurvival scans the module for every potential failure site, the
// way survival mode does (§3.1.1):
//
//   - every plain assert is an assertion-violation site;
//   - every oracle assert is a wrong-output site with an oracle, and every
//     output instruction is a wrong-output site without one;
//   - every load or store through a pointer is a potential
//     segmentation-fault site (the dereference of a heap/global pointer);
//   - every lock acquisition is a potential deadlock site (to be converted
//     to a timed lock).
//
// Sites are returned in deterministic position order.
func IdentifySurvival(m *mir.Module) []Site {
	var sites []Site
	for fi := range m.Functions {
		f := &m.Functions[fi]
		for bi := range f.Blocks {
			for ii := range f.Blocks[bi].Instrs {
				in := &f.Blocks[bi].Instrs[ii]
				pos := mir.Pos{Fn: fi, Block: bi, Index: ii}
				switch in.Op {
				case mir.OpAssert:
					if in.AssertKind == mir.AssertOracle {
						sites = append(sites, Site{Kind: SiteWrongOutput, Pos: pos, Op: in.Op, HasOracle: true})
					} else {
						sites = append(sites, Site{Kind: SiteAssert, Pos: pos, Op: in.Op})
					}
				case mir.OpOutput:
					sites = append(sites, Site{Kind: SiteWrongOutput, Pos: pos, Op: in.Op})
				case mir.OpLoad, mir.OpStore:
					sites = append(sites, Site{Kind: SiteSegfault, Pos: pos, Op: in.Op})
				case mir.OpLock:
					sites = append(sites, Site{Kind: SiteDeadlock, Pos: pos, Op: in.Op})
				case mir.OpWait, mir.OpChSend:
					// A wait can miss its signal forever (lost signal/missed
					// broadcast) and a send can block forever on a full
					// channel — hang symptoms recovered by the timed-form
					// rewrite, exactly like lock → timedlock.
					sites = append(sites, Site{Kind: SiteDeadlock, Pos: pos, Op: in.Op})
				case mir.OpCAS:
					// A cas dereferences its address operand: a potential
					// segmentation-fault site like any load/store.
					sites = append(sites, Site{Kind: SiteSegfault, Pos: pos, Op: in.Op})
				}
			}
		}
	}
	for i := range sites {
		sites[i].ID = i + 1
	}
	return sites
}

// IdentifyFix returns the single failure site at the given position, the
// way fix mode does (§3.1.2): the user names the failing statement — a
// violated assert, a blocking lock, a faulting dereference, or an output
// producing wrong results — and ConAir classifies it.
func IdentifyFix(m *mir.Module, pos mir.Pos) (Site, error) {
	if pos.Fn < 0 || pos.Fn >= len(m.Functions) {
		return Site{}, fmt.Errorf("fix mode: function index %d out of range", pos.Fn)
	}
	f := &m.Functions[pos.Fn]
	if pos.Block < 0 || pos.Block >= len(f.Blocks) {
		return Site{}, fmt.Errorf("fix mode: block index %d out of range in %s", pos.Block, f.Name)
	}
	blk := &f.Blocks[pos.Block]
	if pos.Index < 0 || pos.Index >= len(blk.Instrs) {
		return Site{}, fmt.Errorf("fix mode: instruction index %d out of range in %s/%s", pos.Index, f.Name, blk.Name)
	}
	in := &blk.Instrs[pos.Index]
	s := Site{ID: 1, Pos: pos, Op: in.Op}
	switch in.Op {
	case mir.OpAssert:
		if in.AssertKind == mir.AssertOracle {
			s.Kind, s.HasOracle = SiteWrongOutput, true
		} else {
			s.Kind = SiteAssert
		}
	case mir.OpOutput:
		s.Kind = SiteWrongOutput
	case mir.OpLoad, mir.OpStore, mir.OpCAS:
		s.Kind = SiteSegfault
	case mir.OpLock, mir.OpWait, mir.OpChSend:
		s.Kind = SiteDeadlock
	default:
		return Site{}, fmt.Errorf("fix mode: instruction %s at %s is not a failure site", in.Op, pos)
	}
	return s, nil
}

// FindSite locates a failure-site position by a human-friendly handle:
// function name plus the n-th instruction of a given opcode (0-based).
// Fix-mode users of the CLI and the bug benchmarks name sites this way.
func FindSite(m *mir.Module, funcName string, op mir.Op, nth int) (mir.Pos, error) {
	fi := m.FuncIndex(funcName)
	if fi < 0 {
		return mir.Pos{}, fmt.Errorf("no function %q", funcName)
	}
	f := &m.Functions[fi]
	seen := 0
	for bi := range f.Blocks {
		for ii := range f.Blocks[bi].Instrs {
			if f.Blocks[bi].Instrs[ii].Op == op {
				if seen == nth {
					return mir.Pos{Fn: fi, Block: bi, Index: ii}, nil
				}
				seen++
			}
		}
	}
	return mir.Pos{}, fmt.Errorf("%s: no %s instruction #%d (found %d)", funcName, op, nth, seen)
}
