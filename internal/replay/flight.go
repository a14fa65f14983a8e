package replay

// Flight capture is how every recording is made: the run's scheduler is
// wrapped in a sched.FlightRecorder, whose ring keeps at most limit
// segments. Record passes a limit no run can reach, so its ring never
// wraps and the recording is always complete. The runner attaches a
// bounded ring per job when Engine.FlightLimit is set, so a failing run —
// even one nobody asked to record — still yields a replayable artifact,
// while long healthy runs cost only the ring. The telemetry server
// (internal/obs/serve) retains the resulting recordings in its run
// registry and serves them at /runs/{id}/recording.

import (
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/sched"
)

// FlightCapture is one job's armed flight recorder; Finish turns it into
// a Recording once the run's Result is known.
type FlightCapture struct {
	mod   *mir.Module
	rec   *sched.FlightRecorder
	inner string
	meta  Meta
	knobs interp.Config
}

// CaptureFlight wraps cfg's scheduler in a flight recorder keeping at
// most limit segments (sched.DefaultFlightSegments if limit <= 0;
// math.MaxInt never wraps) and returns the adjusted config plus the
// capture handle. The wrapped run is bit-identical to the unwrapped one,
// and a *sched.Random inside the recorder keeps the interpreter's
// devirtualized pick path.
func CaptureFlight(mod *mir.Module, cfg interp.Config, meta Meta, limit int) (interp.Config, *FlightCapture) {
	if cfg.Sched == nil {
		cfg.Sched = sched.NewRandom(1)
	}
	fc := &FlightCapture{
		mod:   mod,
		rec:   sched.NewFlightRecorder(cfg.Sched, limit),
		inner: cfg.Sched.Name(),
		meta:  meta,
	}
	cfg.Sched = fc.rec
	fc.knobs = cfg
	return cfg, fc
}

// Truncated reports whether the ring wrapped: the retained stream is then
// only the schedule's tail and Finish returns nil.
func (fc *FlightCapture) Truncated() bool { return fc.rec.Truncated() }

// Picks returns the total number of scheduling decisions the run made.
func (fc *FlightCapture) Picks() int64 { return fc.rec.Picks() }

// Finish builds the Recording from the run's Result. It returns nil when
// the ring wrapped: a truncated stream replays from the wrong state, so
// it must never be passed off as a reproducer. (Callers that want the
// partial tail for timeline display can read the recorder directly.)
func (fc *FlightCapture) Finish(r *interp.Result) *Recording {
	if fc.rec.Truncated() {
		return nil
	}
	out := &Recording{
		ModuleName:       fc.mod.Name,
		ModuleHash:       fc.mod.Hash(),
		SchedName:        fc.inner,
		Seed:             fc.meta.Seed,
		Label:            fc.meta.Label,
		MaxSteps:         fc.knobs.MaxSteps,
		MaxThreads:       fc.knobs.MaxThreads,
		CollectOutput:    fc.knobs.CollectOutput,
		NoDeadlockCycles: fc.knobs.NoDeadlockCycles,
		Fingerprint:      FingerprintOf(r),
		Segments:         fc.rec.Segments(),
		Intns:            fc.rec.Intns(),
	}
	if !fc.meta.OmitModule {
		out.ModuleText = fc.mod.Text()
	}
	return out
}
