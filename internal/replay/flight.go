package replay

// Flight capture is how every recording is made: the run's scheduler is
// wrapped in a sched.FlightRecorder, which keeps the first limit segments
// and draws of the run's decision stream and marks the run truncated when
// more arrive. Record passes a limit no run can reach, so its recording
// is always complete. The runner attaches a bounded recorder per job when
// Engine.FlightLimit is set, so a failing run — even one nobody asked to
// record — still yields a replayable artifact, while long healthy runs
// cost only the bounded buffers. The telemetry server
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
	mod      *mir.Module
	rec      *sched.FlightRecorder
	inner    string
	meta     Meta
	maxSteps int64
}

// CaptureFlight wraps cfg's scheduler in a flight recorder keeping at
// most limit segments (sched.DefaultFlightSegments if limit <= 0;
// math.MaxInt never truncates) and returns the adjusted config plus the
// capture handle. The wrapped run is bit-identical to the unwrapped one,
// and a *sched.Random inside the recorder keeps the interpreter's
// devirtualized pick path.
func CaptureFlight(mod *mir.Module, cfg interp.Config, meta Meta, limit int) (interp.Config, *FlightCapture) {
	if cfg.Sched == nil {
		cfg.Sched = sched.NewRandom(1)
	}
	fc := &FlightCapture{
		mod:      mod,
		rec:      sched.NewFlightRecorder(cfg.Sched, limit),
		inner:    cfg.Sched.Name(),
		meta:     meta,
		maxSteps: cfg.MaxSteps,
	}
	cfg.Sched = fc.rec
	return cfg, fc
}

// Finish builds the Recording from the run's Result. It returns nil when
// the recording was truncated: a prefix of the schedule cannot replay the
// run, so it must never be passed off as a reproducer.
func (fc *FlightCapture) Finish(r *interp.Result) *Recording {
	if fc.rec.Truncated() {
		return nil
	}
	out := &Recording{
		ModuleName:  fc.mod.Name,
		ModuleHash:  fc.mod.Hash(),
		SchedName:   fc.inner,
		Seed:        fc.meta.Seed,
		Label:       fc.meta.Label,
		MaxSteps:    fc.maxSteps,
		Fingerprint: FingerprintOf(r),
		Segments:    fc.rec.Segments(),
		Intns:       fc.rec.Intns(),
	}
	if !fc.meta.OmitModule {
		out.ModuleText = fc.mod.Text()
	}
	return out
}
