package analysis

import (
	"reflect"
	"testing"

	"conair/internal/mir"
)

// --- Failure-site identification (§3.1) ---

func TestIdentifySurvivalCensus(t *testing.T) {
	m := mir.MustParse(`
global g = 0
global mtx = 0
func main() {
entry:
  %x = loadg @g
  assert %x, "a1"
  oracle %x, "o1"
  output "v", %x
  %p = addrg @g
  %v = load %p
  store %p, 1
  %pm = addrg @mtx
  lock %pm
  unlock %pm
  ret
}`)
	sites := IdentifySurvival(m)
	var c Census
	for _, s := range sites {
		c.Add(s.Kind)
	}
	if c.Assert != 1 {
		t.Errorf("assert sites = %d, want 1", c.Assert)
	}
	if c.WrongOutput != 2 { // one oracle + one plain output
		t.Errorf("wrong-output sites = %d, want 2", c.WrongOutput)
	}
	if c.Segfault != 2 { // load + store
		t.Errorf("segfault sites = %d, want 2", c.Segfault)
	}
	if c.Deadlock != 1 {
		t.Errorf("deadlock sites = %d, want 1", c.Deadlock)
	}
	if c.Total() != 6 || c.Total() != len(sites) {
		t.Errorf("total = %d, len = %d", c.Total(), len(sites))
	}
	// IDs dense from 1 in position order.
	for i, s := range sites {
		if s.ID != i+1 {
			t.Errorf("site %d has ID %d", i, s.ID)
		}
		if i > 0 && !sites[i-1].Pos.Less(s.Pos) {
			t.Errorf("sites not position-ordered at %d", i)
		}
	}
}

func TestOracleRecoverability(t *testing.T) {
	m := mir.MustParse(`
func main() {
entry:
  %x = const 1
  oracle %x, "o"
  output "v", %x
  ret
}`)
	sites := IdentifySurvival(m)
	if len(sites) != 2 {
		t.Fatalf("sites = %d", len(sites))
	}
	if !sites[0].HasOracle || !sites[0].Recoverable() {
		t.Error("oracle site should be recoverable")
	}
	if sites[1].HasOracle || sites[1].Recoverable() {
		t.Error("plain output site should not be recoverable")
	}
}

func TestIdentifyFix(t *testing.T) {
	m := mir.MustParse(`
global g = 0
func main() {
entry:
  %p = addrg @g
  %v = load %p
  assert %v, "a"
  ret
}`)
	pos, err := FindSite(m, "main", mir.OpLoad, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := IdentifyFix(m, pos)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != SiteSegfault || s.ID != 1 {
		t.Errorf("fix site = %+v", s)
	}

	if _, err := IdentifyFix(m, mir.Pos{Fn: 0, Block: 0, Index: 0}); err == nil {
		t.Error("addrg is not a failure site; expected error")
	}
	if _, err := IdentifyFix(m, mir.Pos{Fn: 9, Block: 0, Index: 0}); err == nil {
		t.Error("out-of-range function; expected error")
	}
	if _, err := FindSite(m, "main", mir.OpLoad, 3); err == nil {
		t.Error("no 4th load; expected error")
	}
	if _, err := FindSite(m, "nope", mir.OpLoad, 0); err == nil {
		t.Error("no such function; expected error")
	}
}

// --- Region identification (§3.2, Figure 3) ---

// Figure 3a: y=x+1; z=x+y is idempotent — the whole straight-line prefix
// is one region reaching function entry.
func TestFigure3aIdempotentRegion(t *testing.T) {
	m := mir.MustParse(`
global gx = 0
func main() {
entry:
  %x = loadg @gx
  %y = add %x, 1
  %z = add %x, %y
  assert %z, "z"
  ret
}`)
	s := mustSite(t, m, "main", mir.OpAssert, 0)
	r := IdentifyRegion(m, s, mir.PolicyExtended)
	if !r.OnlyEntryPoint {
		t.Errorf("expected region to reach entry only, points = %v", r.Points)
	}
	if len(r.Members) != 3 {
		t.Errorf("members = %v, want the 3 register instructions", r.Members)
	}
}

// Figure 3b's non-idempotent x=x+1 is expressed in MIR as a stack-slot
// update (registers are checkpoint-restored, memory locals are not): the
// region must stop right after the store.
func TestFigure3bLocalWriteEndsRegion(t *testing.T) {
	m := mir.MustParse(`
func main() {
entry:
  %x0 = loads $x
  %x1 = add %x0, 1
  stores $x, %x1
  %z = add %x1, 1
  assert %z, "z"
  ret
}`)
	s := mustSite(t, m, "main", mir.OpAssert, 0)
	r := IdentifyRegion(m, s, mir.PolicyExtended)
	if len(r.Points) != 1 {
		t.Fatalf("points = %v", r.Points)
	}
	want := mir.Pos{Fn: 0, Block: 0, Index: 3} // right after stores
	if r.Points[0] != want {
		t.Errorf("point = %v, want %v", r.Points[0], want)
	}
	if r.OnlyEntryPoint {
		t.Error("region must not reach entry")
	}
}

func TestRegionStopsAtEachDestroyerKind(t *testing.T) {
	cases := []struct {
		name string
		line string
	}{
		{"shared write", "storeg @g, 1"},
		{"pointer write", "store %p, 1"},
		{"io", `output "x", 1`},
		{"free", "free %p"},
		{"unlock", "unlock %p"},
		{"call", "call idle()"},
	}
	for _, c := range cases {
		src := `
global g = 0
func idle() {
entry:
  ret
}
func main() {
entry:
  %p = addrg @g
  ` + c.line + `
  %v = loadg @g
  assert %v, "v"
  ret
}`
		m := mir.MustParse(src)
		s := mustSite(t, m, "main", mir.OpAssert, 0)
		r := IdentifyRegion(m, s, mir.PolicyExtended)
		if r.OnlyEntryPoint {
			t.Errorf("%s: region should not reach entry", c.name)
			continue
		}
		if len(r.Points) != 1 || r.Points[0].Index != 2 {
			t.Errorf("%s: points = %v, want index 2 (after the destroyer)", c.name, r.Points)
		}
	}
}

func TestExtendedPolicyAdmitsAllocAndLock(t *testing.T) {
	src := `
global g = 0
func main() {
entry:
  %p = addrg @g
  lock %p
  %h = alloc 4
  %v = loadg @g
  assert %v, "v"
  unlock %p
  ret
}`
	m := mir.MustParse(src)
	s := mustSite(t, m, "main", mir.OpAssert, 0)
	r := IdentifyRegion(m, s, mir.PolicyExtended)
	if !r.OnlyEntryPoint {
		t.Errorf("extended region should reach entry, points = %v", r.Points)
	}
	if !r.HasLockAcquire {
		t.Error("lock acquisition should be recorded")
	}
	rb := IdentifyRegion(m, s, mir.PolicyBasic)
	if rb.OnlyEntryPoint {
		t.Error("basic region must stop at alloc/lock")
	}
}

func TestRegionMultiplePathsMultiplePoints(t *testing.T) {
	// Two paths converge on the assert; one path has a shared write, the
	// other is clean all the way to entry — one point after the write and
	// one at entry.
	m := mir.MustParse(`
global g = 0
global c = 0
func main() {
entry:
  %cv = loadg @c
  br %cv, dirty, clean
dirty:
  storeg @g, 1
  %a = loadg @g
  jmp check
clean:
  %a = loadg @g
  jmp check
check:
  assert %a, "a"
  ret
}`)
	s := mustSite(t, m, "main", mir.OpAssert, 0)
	r := IdentifyRegion(m, s, mir.PolicyExtended)
	if len(r.Points) != 2 {
		t.Fatalf("points = %v, want 2", r.Points)
	}
	entry := mir.Pos{Fn: 0, Block: 0, Index: 0}
	afterStore := mir.Pos{Fn: 0, Block: m.Functions[0].BlockIndex("dirty"), Index: 1}
	if r.Points[0] != entry || r.Points[1] != afterStore {
		t.Errorf("points = %v, want [%v %v]", r.Points, entry, afterStore)
	}
}

func TestRegionLoopRescansSiteBlock(t *testing.T) {
	// The site sits in a loop body containing a shared write after the
	// site: looping paths must yield a point after that write.
	m := mir.MustParse(`
global g = 0
func main() {
entry:
  %v = loadg @g
  jmp loop
loop:
  %a = loadg @g
  assert %a, "a"
  storeg @g, 0
  %c = loadg @g
  br %c, loop, out
out:
  ret
}`)
	s := mustSite(t, m, "main", mir.OpAssert, 0)
	r := IdentifyRegion(m, s, mir.PolicyExtended)
	loop := m.Functions[0].BlockIndex("loop")
	foundAfterStore := false
	for _, p := range r.Points {
		if p.Block == loop && p.Index == 3 {
			foundAfterStore = true
		}
	}
	if !foundAfterStore {
		t.Errorf("points = %v, want one after the loop's storeg", r.Points)
	}
}

// --- Slicing (§4.2, Figure 8) ---

func TestFigure8Slicing(t *testing.T) {
	// global_z = 1; stack_x = *global_p; assert(stack_x): in MIR the
	// stack_x write is a register def, and the slice finds the two shared
	// reads (load of @global_p and the dereference) without alias
	// analysis.
	m := mir.MustParse(`
global global_z = 0
global global_p = 0
func main() {
entry:
  storeg @global_z, 1
  %r0 = loadg @global_p
  %r1 = load %r0
  assert %r1, "a"
  ret
}`)
	s := mustSite(t, m, "main", mir.OpAssert, 0)
	r := IdentifyRegion(m, s, mir.PolicyExtended)
	sl := ComputeSlice(m, &r, nil)
	if len(sl.SharedReads) != 2 {
		t.Fatalf("shared reads = %v, want 2 (loadg + load)", sl.SharedReads)
	}
	// The region stops after storeg, so the store is outside the slice.
	for _, p := range sl.OnSlice {
		if m.At(p).Op == mir.OpStoreG {
			t.Error("storeg must be outside the region/slice")
		}
	}
}

func TestSliceStopsAtStackSlotRead(t *testing.T) {
	// Figure 8's rule: a def that reads a non-register location ends the
	// chain. The loadg feeding the slot is NOT on the slice.
	m := mir.MustParse(`
global g = 0
func main() {
entry:
  %a = loads $x
  %b = add %a, 1
  assert %b, "b"
  ret
}`)
	s := mustSite(t, m, "main", mir.OpAssert, 0)
	r := IdentifyRegion(m, s, mir.PolicyExtended)
	sl := ComputeSlice(m, &r, nil)
	if sl.HasSharedRead() {
		t.Errorf("no shared read should be on the slice, got %v", sl.SharedReads)
	}
	// loads itself is on the slice (it defines %a) but tracking stops.
	found := false
	for _, p := range sl.OnSlice {
		if m.At(p).Op == mir.OpLoadS {
			found = true
		}
	}
	if !found {
		t.Error("the loads def should be on the slice")
	}
}

func TestSliceIgnoresUnrelatedSharedReads(t *testing.T) {
	// A shared read whose value does not feed the assert is not on the
	// data slice; with no in-region branches it must not be reported.
	m := mir.MustParse(`
global g = 0
global h = 0
func main() {
entry:
  %unrelated = loadg @h
  %a = loadg @g
  assert %a, "a"
  ret
}`)
	s := mustSite(t, m, "main", mir.OpAssert, 0)
	r := IdentifyRegion(m, s, mir.PolicyExtended)
	sl := ComputeSlice(m, &r, nil)
	if len(sl.SharedReads) != 1 {
		t.Fatalf("shared reads = %v, want only the @g load", sl.SharedReads)
	}
	if int(m.At(sl.SharedReads[0]).Aux) != m.GlobalIndex("g") {
		t.Error("wrong shared read on slice")
	}
}

func TestSliceControlDependence(t *testing.T) {
	// The branch condition feeds reaching the site: its shared read must
	// be on the slice even though the assert's value is a constant.
	m := mir.MustParse(`
global g = 0
func main() {
entry:
  %c = loadg @g
  br %c, yes, no
yes:
  %k = const 0
  assert %k, "k"
  ret
no:
  ret
}`)
	s := mustSite(t, m, "main", mir.OpAssert, 0)
	r := IdentifyRegion(m, s, mir.PolicyExtended)
	sl := ComputeSlice(m, &r, nil)
	if len(sl.SharedReads) != 1 {
		t.Fatalf("control-dependent shared read missing: %v", sl.SharedReads)
	}
}

func TestSliceCriticalParams(t *testing.T) {
	// GetState(thd): the dereferenced pointer is the parameter — the
	// MozillaXP shape. The parameter must be a critical parameter.
	m := mir.MustParse(`
func getstate(%thd) {
entry:
  %v = load %thd
  ret %v
}
func main() {
entry:
  ret
}`)
	s := mustSite(t, m, "getstate", mir.OpLoad, 0)
	r := IdentifyRegion(m, s, mir.PolicyExtended)
	sl := ComputeSlice(m, &r, nil)
	f := &m.Functions[s.Pos.Fn]
	crit := sl.CriticalParams(f)
	if len(crit) != 1 || crit[0] != 0 {
		t.Errorf("critical params = %v, want [0]", crit)
	}
}

// --- Pruning (§4.2, Figure 7) ---

// Figure 7a: a lone lock with nothing before it — unrecoverable.
func TestFigure7aDeadlockPruned(t *testing.T) {
	m := mir.MustParse(`
global L = 0
func main() {
entry:
  %p = addrg @L
  lock %p
  unlock %p
  ret
}`)
	s := mustSite(t, m, "main", mir.OpLock, 0)
	r := IdentifyRegion(m, s, mir.PolicyExtended)
	sl := ComputeSlice(m, &r, nil)
	if v := PruneSite(s, &r, &sl); v != PruneNoLockInRegion {
		t.Errorf("verdict = %v, want no-lock-in-region", v)
	}
}

// Figure 7b: lock(&L0); lock(&L) — recoverable because rolling back
// releases L0.
func TestFigure7bDeadlockKept(t *testing.T) {
	m := mir.MustParse(`
global L0 = 0
global L = 0
func main() {
entry:
  %p0 = addrg @L0
  lock %p0
  %p = addrg @L
  lock %p
  unlock %p
  unlock %p0
  ret
}`)
	s := mustSite(t, m, "main", mir.OpLock, 1)
	r := IdentifyRegion(m, s, mir.PolicyExtended)
	sl := ComputeSlice(m, &r, nil)
	if v := PruneSite(s, &r, &sl); v != KeepSite {
		t.Errorf("verdict = %v, want keep", v)
	}
	if !r.HasLockAcquire {
		t.Error("region should contain the first lock")
	}
}

// Figure 7c: tmp=tmp+1; assert(tmp) with no shared read — unrecoverable.
func TestFigure7cAssertPruned(t *testing.T) {
	m := mir.MustParse(`
func main() {
entry:
  %tmp = loads $t
  %tmp2 = add %tmp, 1
  assert %tmp2, "tmp"
  ret
}`)
	s := mustSite(t, m, "main", mir.OpAssert, 0)
	r := IdentifyRegion(m, s, mir.PolicyExtended)
	sl := ComputeSlice(m, &r, nil)
	if v := PruneSite(s, &r, &sl); v != PruneNoSharedRead {
		t.Errorf("verdict = %v, want no-shared-read", v)
	}
}

// Figure 7d: tmp=global_x; assert(tmp) — recoverable.
func TestFigure7dAssertKept(t *testing.T) {
	m := mir.MustParse(`
global global_x = 0
func main() {
entry:
  %tmp = loadg @global_x
  assert %tmp, "tmp"
  ret
}`)
	s := mustSite(t, m, "main", mir.OpAssert, 0)
	r := IdentifyRegion(m, s, mir.PolicyExtended)
	sl := ComputeSlice(m, &r, nil)
	if v := PruneSite(s, &r, &sl); v != KeepSite {
		t.Errorf("verdict = %v, want keep", v)
	}
}

func TestSegfaultSitesNeverPruned(t *testing.T) {
	// Even with an empty slice shared-read set, dereference sites stay
	// (§6.2: the dereference itself re-reads shared state).
	m := mir.MustParse(`
func main() {
entry:
  %p = loads $p
  %v = load %p
  ret
}`)
	s := mustSite(t, m, "main", mir.OpLoad, 0)
	r := IdentifyRegion(m, s, mir.PolicyExtended)
	sl := ComputeSlice(m, &r, nil)
	if v := PruneSite(s, &r, &sl); v != KeepSite {
		t.Errorf("verdict = %v, want keep for segfault site", v)
	}
}

// TestCheckpointsAfterPruning pins which reexecution points Analyze
// plants once §4.2 has pruned sites: a point serving only a site pruned
// for having no shared read on its slice is dropped, a point shared with
// a kept site stays, and a point serving only an oracle-less wrong-output
// site stays too, so survival mode still pays the paper's worst-case
// overhead there.
func TestCheckpointsAfterPruning(t *testing.T) {
	m := mir.MustParse(`
global g = 0
func pruned() {
entry:
  %t = loads $t
  assert %t, "local only"
  ret
}
func shared() {
entry:
  %a = loadg @g
  %t = loads $t
  assert %t, "local only"
  assert %a, "shared"
  ret
}
func plain() {
entry:
  %a = loadg @g
  output "a", %a
  ret
}
func main() {
entry:
  ret
}`)
	res, err := Analyze(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	verdicts := map[string][]PruneVerdict{}
	for _, sa := range res.Sites {
		fn := m.Functions[sa.Site.Pos.Fn].Name
		verdicts[fn] = append(verdicts[fn], sa.Verdict)
	}
	want := map[string][]PruneVerdict{
		"pruned": {PruneNoSharedRead},
		"shared": {PruneNoSharedRead, KeepSite},
		"plain":  {PruneNoRecovery},
	}
	if !reflect.DeepEqual(verdicts, want) {
		t.Fatalf("verdicts = %v, want %v", verdicts, want)
	}
	entry := func(fn string) mir.Pos { return mir.Pos{Fn: m.FuncIndex(fn)} }
	if res.CheckpointAt(entry("pruned")) != nil {
		t.Error("a point serving only a pruned site was planted")
	}
	if cp := res.CheckpointAt(entry("shared")); cp == nil || len(cp.SiteIDs) != 1 {
		t.Errorf("point shared with a kept site = %+v, want planted for the kept site only", cp)
	}
	if res.CheckpointAt(entry("plain")) == nil {
		t.Error("a point serving only an oracle-less wrong-output site was dropped")
	}
	if len(res.Checkpoints) != 2 {
		t.Errorf("planted %d checkpoints, want 2", len(res.Checkpoints))
	}
}

// --- Inter-procedural recovery (§4.3) ---

const mozillaShape = `
global mThd = 0
func getstate(%thd) {
entry:
  %v = load %thd
  ret %v
}
func get() {
entry:
  storeg @mThd, 0
  %p = loadg @mThd
  %tmp = call getstate(%p)
  ret
}
func main() {
entry:
  call get()
  ret
}
`

func TestInterprocSelectedForMozillaShape(t *testing.T) {
	m := mir.MustParse(mozillaShape)
	s := mustSite(t, m, "getstate", mir.OpLoad, 0)
	r := IdentifyRegion(m, s, mir.PolicyExtended)
	sl := ComputeSlice(m, &r, nil)
	if !r.OnlyEntryPoint {
		t.Fatalf("condition 1 should hold, points = %v", r.Points)
	}
	ip := SelectInterproc(m, s, &r, &sl, mir.PolicyExtended, 3)
	if !ip.Selected {
		t.Fatalf("interproc should be selected: %+v", ip)
	}
	// The caller-side point must be after get's storeg, right before the
	// loadg that feeds the critical parameter.
	gi := m.FuncIndex("get")
	want := mir.Pos{Fn: gi, Block: 0, Index: 1}
	if len(ip.Points) != 1 || ip.Points[0] != want {
		t.Errorf("caller points = %v, want [%v]", ip.Points, want)
	}
}

func TestInterprocRejectedWithoutCriticalParam(t *testing.T) {
	// The callee's failure does not depend on any parameter: no point in
	// inter-procedural recovery for a non-deadlock site.
	m := mir.MustParse(`
global g = 0
func check(%unused) {
entry:
  %v = loads $t
  assert %v, "v"
  ret
}
func main() {
entry:
  call check(1)
  ret
}`)
	s := mustSite(t, m, "check", mir.OpAssert, 0)
	r := IdentifyRegion(m, s, mir.PolicyExtended)
	sl := ComputeSlice(m, &r, nil)
	ip := SelectInterproc(m, s, &r, &sl, mir.PolicyExtended, 3)
	if ip.Selected {
		t.Errorf("interproc selected without critical parameter: %+v", ip)
	}
}

func TestInterprocRejectedWhenRegionDoesNotReachEntry(t *testing.T) {
	m := mir.MustParse(`
global g = 0
func check(%p) {
entry:
  storeg @g, 1
  %v = load %p
  ret %v
}
func main() {
entry:
  %x = call check(20000)
  ret
}`)
	s := mustSite(t, m, "check", mir.OpLoad, 0)
	r := IdentifyRegion(m, s, mir.PolicyExtended)
	sl := ComputeSlice(m, &r, nil)
	ip := SelectInterproc(m, s, &r, &sl, mir.PolicyExtended, 3)
	if ip.Selected {
		t.Errorf("interproc selected despite destroying op before site: %+v", ip)
	}
}

func TestInterprocRejectedWhenEveryPathRecoverable(t *testing.T) {
	// The pointer is loaded from a global inside the region on the only
	// path: reexecution can already observe a new value, so condition 3
	// fails.
	m := mir.MustParse(`
global gp = 0
func deref(%extra) {
entry:
  %p = loadg @gp
  %q = add %p, %extra
  %v = load %q
  ret %v
}
func main() {
entry:
  %x = call deref(0)
  ret
}`)
	s := mustSite(t, m, "deref", mir.OpLoad, 0)
	r := IdentifyRegion(m, s, mir.PolicyExtended)
	sl := ComputeSlice(m, &r, nil)
	ip := SelectInterproc(m, s, &r, &sl, mir.PolicyExtended, 3)
	if ip.Selected {
		t.Errorf("interproc selected although every path has a shared read: %+v", ip)
	}
}

func TestInterprocDepthLimitGivesUp(t *testing.T) {
	// A chain of clean wrappers deeper than the limit: ConAir gives up
	// and keeps the intra-procedural entry point.
	m := mir.MustParse(`
func leaf(%p) {
entry:
  %v = load %p
  ret %v
}
func w1(%p) {
entry:
  %v = call leaf(%p)
  ret %v
}
func w2(%p) {
entry:
  %v = call w1(%p)
  ret %v
}
func w3(%p) {
entry:
  %v = call w2(%p)
  ret %v
}
func main() {
entry:
  %x = call w3(20000)
  ret
}`)
	s := mustSite(t, m, "leaf", mir.OpLoad, 0)
	r := IdentifyRegion(m, s, mir.PolicyExtended)
	sl := ComputeSlice(m, &r, nil)
	ip := SelectInterproc(m, s, &r, &sl, mir.PolicyExtended, 3)
	if ip.Selected || !ip.GaveUp {
		t.Errorf("expected give-up at depth limit: %+v", ip)
	}
	// With a deeper limit, selection succeeds and lands in main.
	ip = SelectInterproc(m, s, &r, &sl, mir.PolicyExtended, 5)
	if !ip.Selected {
		t.Fatalf("expected selection with deeper limit: %+v", ip)
	}
	if len(ip.Points) != 1 || ip.Points[0].Fn != m.FuncIndex("main") {
		t.Errorf("points = %v, want one in main", ip.Points)
	}
}

func TestInterprocStopsAtSpawn(t *testing.T) {
	// The failing function is a thread entry: rollback cannot cross the
	// spawn, so no caller-side points exist and selection fails.
	m := mir.MustParse(`
func worker(%p) {
entry:
  %v = load %p
  ret %v
}
func main() {
entry:
  %t = spawn worker(20000)
  join %t
  ret
}`)
	s := mustSite(t, m, "worker", mir.OpLoad, 0)
	r := IdentifyRegion(m, s, mir.PolicyExtended)
	sl := ComputeSlice(m, &r, nil)
	ip := SelectInterproc(m, s, &r, &sl, mir.PolicyExtended, 3)
	if ip.Selected {
		t.Errorf("interproc must not cross spawn: %+v", ip)
	}
}

// --- Full analysis orchestration ---

func TestAnalyzeSurvivalEndToEnd(t *testing.T) {
	m := mir.MustParse(mozillaShape)
	res, err := Analyze(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Census.Segfault != 1 || res.Census.WrongOutput != 0 {
		t.Errorf("census = %+v", res.Census)
	}
	if res.InterprocSites != 1 {
		t.Errorf("interproc sites = %d, want 1", res.InterprocSites)
	}
	if res.StaticReexecPoints() == 0 {
		t.Error("no checkpoints planted")
	}
	// The entry point of getstate must have been replaced by the caller
	// point inside get.
	entry := mir.Pos{Fn: m.FuncIndex("getstate"), Block: 0, Index: 0}
	if res.CheckpointAt(entry) != nil {
		t.Error("REintra should have been removed for the interproc site")
	}
	gi := m.FuncIndex("get")
	if res.CheckpointAt(mir.Pos{Fn: gi, Block: 0, Index: 1}) == nil {
		t.Error("caller-side checkpoint missing")
	}
}

func TestAnalyzeFixMode(t *testing.T) {
	m := mir.MustParse(mozillaShape)
	pos, err := FindSite(m, "getstate", mir.OpLoad, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Mode = Fix
	opts.FixSite = pos
	res, err := Analyze(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) != 1 || res.Sites[0].Site.Kind != SiteSegfault {
		t.Fatalf("fix analysis sites = %+v", res.Sites)
	}
	if res.Census.Total() != 1 {
		t.Errorf("census total = %d, want 1", res.Census.Total())
	}
}

func TestAnalyzeOptimizeToggle(t *testing.T) {
	// A module with a prunable assert: optimization must remove its
	// checkpoint; without optimization the checkpoint stays.
	src := `
func main() {
entry:
  %tmp = loads $t
  %tmp2 = add %tmp, 1
  assert %tmp2, "tmp"
  ret
}`
	m := mir.MustParse(src)
	on := DefaultOptions()
	resOn, err := Analyze(m, on)
	if err != nil {
		t.Fatal(err)
	}
	off := DefaultOptions()
	off.Optimize = false
	resOff, err := Analyze(m, off)
	if err != nil {
		t.Fatal(err)
	}
	if resOn.StaticReexecPoints() != 0 {
		t.Errorf("optimized points = %d, want 0", resOn.StaticReexecPoints())
	}
	if resOff.StaticReexecPoints() != 1 {
		t.Errorf("unoptimized points = %d, want 1", resOff.StaticReexecPoints())
	}
	if resOn.PrunedSites != 1 || resOff.PrunedSites != 0 {
		t.Errorf("pruned: on=%d off=%d", resOn.PrunedSites, resOff.PrunedSites)
	}
}

func TestCheckpointSharing(t *testing.T) {
	// Two asserts back-to-back share the entry reexecution point: exactly
	// one checkpoint is planted (§3.3).
	m := mir.MustParse(`
global g = 0
func main() {
entry:
  %a = loadg @g
  assert %a, "a1"
  assert %a, "a2"
  ret
}`)
	res, err := Analyze(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.StaticReexecPoints() != 1 {
		t.Fatalf("checkpoints = %d, want 1 shared", res.StaticReexecPoints())
	}
	cp := res.Checkpoints[0]
	if len(cp.SiteIDs) != 2 || !cp.ServesNonDeadlock || cp.ServesDeadlock {
		t.Errorf("checkpoint = %+v", cp)
	}
}

func mustSite(t *testing.T, m *mir.Module, fn string, op mir.Op, nth int) Site {
	t.Helper()
	pos, err := FindSite(m, fn, op, nth)
	if err != nil {
		t.Fatal(err)
	}
	s, err := IdentifyFix(m, pos)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
