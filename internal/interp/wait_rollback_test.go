package interp_test

import (
	"testing"

	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/sched"
)

// This file pins the wait-rollback rule documented on mir.Classify: a
// completed wait consumes a delivered signal, so no recovery rollback may
// ever cross it — the checkpoint serving any later failure site is
// planted immediately past the wait, and a recovery retry therefore
// re-reads shared state without re-arming the wait and stealing a signal
// meant for another waiter.
//
// The scenario: two consumers block on one condvar-guarded item queue. A
// producer publishes item 1, then (late) the item's payload, then item 2.
// The "checked" consumer asserts the payload is visible while still
// holding the queue lock, with no idempotency-destroying instruction
// between its wait and the assert — so the wait itself is the nearest
// destroyer and the assert's recovery checkpoint must sit directly after
// it. If a rollback could cross the wait, the retry would re-arm it and
// consume the second consumer's signal.

// waitRollbackModule builds the two-consumer scenario.
func waitRollbackModule() *mir.Module {
	b := mir.NewBuilder("waitrollback")
	items := b.Global("items", 0)
	data := b.Global("data", 0)
	cv := b.Global("cv", 0)
	mtx := b.Global("mtx", 0)

	consumer := func(name string, checked bool) {
		f := b.Func(name)
		mp := f.AddrG("mp", mtx)
		cp := f.AddrG("cp", cv)
		f.Lock(mp)
		loop := f.Label("loop")
		i := f.LoadG("i", items)
		take := f.NewBlock("take")
		arm := f.NewBlock("arm")
		f.Br(i, take, arm)
		f.SetBlock(arm)
		f.Wait(cp, mp)
		f.Jmp(loop)
		f.SetBlock(take)
		if checked {
			d := f.LoadG("d", data)
			f.Assert(d, "item consumed before its payload was published")
		}
		left := f.Bin("left", mir.BinSub, i, mir.Imm(1))
		f.StoreG(items, left)
		f.Unlock(mp)
		f.Ret(mir.None)
	}
	consumer("checked", true)
	consumer("plain", false)

	p := b.Func("producer")
	mp := p.AddrG("mp", mtx)
	cp := p.AddrG("cp", cv)
	produce := func() {
		p.Lock(mp)
		n := p.LoadG("n", items)
		n1 := p.Bin("n1", mir.BinAdd, n, mir.Imm(1))
		p.StoreG(items, n1)
		p.Signal(cp)
		p.Unlock(mp)
	}
	produce()
	// The forced race: item 1 is announced above, its payload lands late.
	p.Sleep(mir.Imm(80))
	p.StoreG(data, mir.Imm(1))
	produce()
	p.Ret(mir.None)

	m := b.Func("main")
	t1 := m.Spawn("t1", "checked")
	t2 := m.Spawn("t2", "plain")
	t3 := m.Spawn("t3", "producer")
	m.Join(t1)
	m.Join(t2)
	m.Join(t3)
	left := m.LoadG("left", items)
	m.Output("items", left)
	d := m.LoadG("d", data)
	m.Output("data", d)
	m.Ret(mir.Imm(0))
	return b.MustModule()
}

// TestWaitRollbackNeverConsumesSecondSignal is the white-box pin of the
// wait-rollback rule, in two parts.
//
// Structurally, every wait in the hardened module must be followed by a
// checkpoint before any other instruction executes (the timed wait's own
// site branch may intervene): rollbacks land past the wait, never before.
//
// Behaviourally, every schedule must complete with both items consumed
// (items drains to 0) and the payload observable intact — if a recovery
// retry of the checked consumer's assert could re-arm its wait, it would
// steal the second signal and the accounting (or the plain consumer)
// would break. The sweep must also actually exercise the assert's
// recovery path on some schedule, or it proves nothing.
func TestWaitRollbackNeverConsumesSecondSignal(t *testing.T) {
	raw := waitRollbackModule()
	h, err := core.Harden(raw, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Part 1: checkpoints sit immediately past every wait. A hardened
	// (timed) wait writes its success flag and branches on it; the
	// checkpoint then must be the first instruction on the success arm.
	waits := 0
	for fi := range h.Module.Functions {
		fn := &h.Module.Functions[fi]
		for bi := range fn.Blocks {
			blk := &fn.Blocks[bi]
			for ii := range blk.Instrs {
				in := &blk.Instrs[ii]
				if in.Op != mir.OpWait {
					continue
				}
				waits++
				next := blk.Instrs[ii+1]
				switch next.Op {
				case mir.OpCheckpoint:
					// Plain wait: checkpoint planted directly after.
				case mir.OpBr:
					cont := &fn.Blocks[next.Aux]
					if len(cont.Instrs) == 0 || cont.Instrs[0].Op != mir.OpCheckpoint {
						t.Errorf("%s: timed wait's success arm %q does not start with a checkpoint",
							fn.Name, cont.Name)
					}
				default:
					t.Errorf("%s: wait followed by %v, want a checkpoint past the wait",
						fn.Name, next.Op)
				}
			}
		}
	}
	if waits == 0 {
		t.Fatal("hardened module contains no waits; the scenario is broken")
	}

	// Part 2: schedule sweep with exact consumption accounting. A run that
	// completes must always have drained both items with the payload intact;
	// a stolen signal would instead strand the plain consumer in its wait
	// and surface as a hang, which no schedule may ever produce. Under PCT
	// the checked consumer's rollback yields to the producer, so random and
	// PCT schedules alike must all complete.
	recovered := false
	run := func(label string, seed int64, s sched.Scheduler) {
		r := interp.RunModule(h.Module, interp.Config{
			Sched: s, MaxSteps: 20_000_000, CollectOutput: true,
		})
		if !r.Completed {
			t.Fatalf("%s seed %d: hardened run did not complete: %v (a stolen signal "+
				"starves a consumer)", label, seed, r.Failure)
		}
		if len(r.Output) != 2 ||
			r.Output[0].Text != "items" || r.Output[0].Value != 0 ||
			r.Output[1].Text != "data" || r.Output[1].Value != 1 {
			t.Fatalf("%s seed %d: consumption accounting broken: %+v", label, seed, r.Output)
		}
		if len(r.RecoveredEpisodes()) > 0 {
			recovered = true
		}
	}
	for seed := int64(0); seed < 60; seed++ {
		run("random", seed, sched.NewRandom(seed))
	}
	for seed := int64(0); seed < 60; seed++ {
		run("pct", seed, sched.NewSearchPCT(seed))
	}
	if !recovered {
		t.Fatal("no schedule exercised the assert's recovery path past the wait")
	}
}
