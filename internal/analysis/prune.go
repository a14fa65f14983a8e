package analysis

import "conair/internal/mir"

// PruneVerdict says whether the recovery code at a site survives the
// optimization pass (paper §4.2) and, when it does not, why.
type PruneVerdict uint8

// Prune verdicts.
const (
	// KeepSite: recovery code stays.
	KeepSite PruneVerdict = iota
	// PruneNoLockInRegion: a deadlock site whose reexecution regions
	// acquire no lock — rolling back releases nothing, so other deadlocked
	// threads can never make progress (Figure 7a).
	PruneNoLockInRegion
	// PruneNoSharedRead: a non-deadlock site whose region contains no
	// shared read on the site's backward slice — reexecution is guaranteed
	// to reproduce the same failure (Figure 7c).
	PruneNoSharedRead
	// PruneNoRecovery: a wrong-output site without an oracle — there is no
	// condition to check, so no recovery code exists to keep.
	PruneNoRecovery
)

// String names the verdict for reports.
func (v PruneVerdict) String() string {
	switch v {
	case KeepSite:
		return "keep"
	case PruneNoLockInRegion:
		return "pruned(no-lock-in-region)"
	case PruneNoSharedRead:
		return "pruned(no-shared-read-on-slice)"
	case PruneNoRecovery:
		return "pruned(no-oracle)"
	}
	return "pruned(?)"
}

// Pruned reports whether the verdict removes recovery code.
func (v PruneVerdict) Pruned() bool { return v != KeepSite }

// PruneSite decides the verdict for one analyzed site:
//
//   - deadlock sites need a lock acquisition inside at least one
//     reexecution region (so the rollback releases a resource, Figure 7b);
//   - non-deadlock sites need at least one shared read on the backward
//     slice inside the region (so reexecution can observe a different
//     value, Figure 7d) — except segmentation-fault sites, whose failing
//     dereference is itself a read of shared state and which are therefore
//     never optimizable (§6.2);
//   - wrong-output sites without an oracle have no recovery code at all.
func PruneSite(site Site, region *Region, slice *Slice) PruneVerdict {
	if !site.Recoverable() {
		return PruneNoRecovery
	}
	switch site.Kind {
	case SiteDeadlock:
		if site.Op == mir.OpWait || site.Op == mir.OpChSend {
			// A timed-out wait or send re-reads its blocking condition on
			// reexecution — the signalled predicate, the channel's
			// occupancy — the way a segfault site re-reads its pointer,
			// so the no-lock-in-region rule does not apply: rolling back
			// helps even when nothing is released (the peer may have set
			// the predicate or drained the channel in the meantime).
			return KeepSite
		}
		if !region.HasLockAcquire {
			return PruneNoLockInRegion
		}
	case SiteSegfault:
		// The dereference re-reads the pointer target on reexecution;
		// ConAir considers these un-optimizable.
		return KeepSite
	default:
		if !slice.HasSharedRead() {
			return PruneNoSharedRead
		}
	}
	return KeepSite
}
