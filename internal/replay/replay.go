// Package replay is the record-and-replay failure-forensics layer: it
// captures the scheduler decision stream of an interpreter run as a
// compact, versioned artifact, replays such artifacts bit-identically,
// and shrinks failing schedules to minimal interleavings with
// delta-debugging (see minimize.go).
//
// The interpreter is deterministic given its scheduler's decisions, so a
// recording needs only the per-pick thread choices (run-length encoded as
// sched.Segments), the sleeprand draw values, and the step budget, the
// one config knob that affects execution. Replaying the stream through a
// sched.SegmentReplay reproduces the whole run — every step count,
// rollback, episode and the failure itself — which Verify checks against
// the result fingerprint stored in the artifact (the same fields the
// golden-fingerprint determinism tests pin).
//
// Artifacts embed the program's canonical MIR text by default, so a
// recording is a self-contained postmortem: `conair -replay rec.cnr`
// needs no other input, and the module hash guards against replaying a
// schedule over the wrong program.
package replay

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sync/atomic"

	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/obs"
	"conair/internal/sched"
)

// FormatVersion is the wire-format version Encode writes and Decode
// accepts. Bump it on any incompatible layout change; Decode rejects
// every other version with ErrVersion rather than misparsing.
const FormatVersion = 2

// Fingerprint condenses one interpreter Result into the fields that a
// bit-identical replay must reproduce exactly — the same cut the
// golden-fingerprint machinery in internal/experiments pins across
// interpreter changes, plus the precise failure identity.
type Fingerprint struct {
	Completed      bool
	ExitCode       mir.Word
	Steps          int64
	Checkpoints    int64
	Rollbacks      int64
	CompFrees      int64
	CompUnlocks    int64
	Episodes       int
	EpisodeRetries int64
	EpisodeSteps   int64
	ThreadsSpawned int

	Failed     bool
	FailKind   mir.FailKind
	FailPos    mir.Pos
	FailSite   int
	FailThread int
	FailStep   int64
	FailMsg    string
}

// FingerprintOf summarizes a Result.
func FingerprintOf(r *interp.Result) Fingerprint {
	fp := Fingerprint{
		Completed:      r.Completed,
		ExitCode:       r.ExitCode,
		Steps:          r.Stats.Steps,
		Checkpoints:    r.Stats.Checkpoints,
		Rollbacks:      r.Stats.Rollbacks,
		CompFrees:      r.Stats.CompFrees,
		CompUnlocks:    r.Stats.CompUnlocks,
		Episodes:       len(r.Stats.Episodes),
		ThreadsSpawned: r.Stats.ThreadsSpawned,
	}
	for _, e := range r.Stats.Episodes {
		fp.EpisodeRetries += e.Retries
		if e.Recovered {
			fp.EpisodeSteps += e.Duration()
		}
	}
	if f := r.Failure; f != nil {
		fp.Failed = true
		fp.FailKind = f.Kind
		fp.FailPos = f.Pos
		fp.FailSite = f.Site
		fp.FailThread = f.Thread
		fp.FailStep = f.Step
		fp.FailMsg = f.Msg
	}
	return fp
}

// FailureKey is the schedule-independent identity of a failure: its kind,
// static position and failure site. It is the ddmin oracle — a minimized
// schedule "still fails" when it produces the same key — deliberately
// excluding the step and thread, which legitimately shift as the
// schedule shrinks.
func (fp Fingerprint) FailureKey() string {
	if !fp.Failed {
		return "completed"
	}
	return fmt.Sprintf("%s@%s#%d", fp.FailKind, fp.FailPos, fp.FailSite)
}

// SameFailure reports whether two fingerprints denote the same failure
// identity (see FailureKey).
func (fp Fingerprint) SameFailure(other Fingerprint) bool {
	return fp.Failed && other.Failed &&
		fp.FailKind == other.FailKind &&
		fp.FailPos == other.FailPos &&
		fp.FailSite == other.FailSite
}

// Recording is one captured run: the program's identity (and usually its
// full text), the step budget it ran under, the scheduler decision
// stream, and the result fingerprint the stream reproduces.
// The text and hash come from the module's own Text and Hash, printed
// once per module however many runs of it are recorded.
type Recording struct {
	ModuleName string
	// ModuleHash is the sha256 of the canonical module text (Module.Hash).
	ModuleHash string
	// ModuleText embeds the program source; "" when the artifact was
	// written without it (replay then needs the module supplied).
	ModuleText string
	// SchedName names the recorded run's original scheduler ("random",
	// "pct", ...) for provenance; replay never constructs it.
	SchedName string
	// Seed is the original scheduler seed when the producer knew it
	// (provenance only; the decision stream is self-sufficient).
	Seed int64
	// Label is free-form provenance ("sanitize", "bench", a bug name...).
	Label string
	// Minimized marks artifacts produced by Minimize.
	Minimized bool

	// MaxSteps is the step budget the run executed under.
	MaxSteps int64

	// Fingerprint is the recorded run's result summary; Verify checks a
	// replay against it field by field.
	Fingerprint Fingerprint

	// Segments is the run-length-encoded pick stream; Intns the sleeprand
	// draw values in draw order.
	Segments []sched.Segment
	Intns    []int64
}

// Picks returns the total number of scheduling decisions recorded.
func (r *Recording) Picks() int64 {
	var n int64
	for _, s := range r.Segments {
		n += s.N
	}
	return n
}

// Switches returns the number of context switches in the recording.
func (r *Recording) Switches() int { return sched.Switches(r.Segments) }

// Module materializes the embedded program, verifying it against the
// stored hash. The embedded text is outside input, so it is hashed here
// rather than trusted.
func (r *Recording) Module() (*mir.Module, error) {
	if r.ModuleText == "" {
		return nil, fmt.Errorf("replay: recording of %q has no embedded module text", r.ModuleName)
	}
	sum := sha256.Sum256([]byte(r.ModuleText))
	if got := hex.EncodeToString(sum[:]); got != r.ModuleHash {
		return nil, fmt.Errorf("replay: embedded module hash %s does not match recorded %s", got[:12], r.ModuleHash[:12])
	}
	m, err := mir.Parse(r.ModuleText)
	if err != nil {
		return nil, fmt.Errorf("replay: embedded module: %w", err)
	}
	return m, nil
}

// CheckModule verifies that mod is the program this recording was
// captured from, by mod.Hash(): a module already recorded, verified or
// hashed is not printed again.
func (r *Recording) CheckModule(mod *mir.Module) error {
	if got := mod.Hash(); got != r.ModuleHash {
		return fmt.Errorf("replay: module hash %s does not match recording %s (program changed?)",
			got[:12], r.ModuleHash[:12])
	}
	return nil
}

// Meta is producer-side provenance attached at capture time.
type Meta struct {
	Seed  int64
	Label string
	// OmitModule leaves the program text out of the artifact (smaller,
	// but replay then requires the module be supplied out of band).
	OmitModule bool
}

// Record runs mod once under cfg with recording attached and returns the
// result together with its recording. The flight recorder's limit is one
// no run reaches, so the recording is always complete.
func Record(mod *mir.Module, cfg interp.Config, meta Meta) (*interp.Result, *Recording) {
	cfg, fc := CaptureFlight(mod, cfg, meta, math.MaxInt)
	r := interp.RunModule(mod, cfg)
	return r, fc.Finish(r)
}

// RunOptions adjusts a replay run.
type RunOptions struct {
	// MaxSteps overrides the recording's step budget (0 keeps it). The
	// minimizer uses it as the probe watchdog.
	MaxSteps int64
	// Sink attaches a trace sink to the replay (for Chrome-trace export
	// of a minimized schedule).
	Sink *obs.Tracer
}

// Run replays the recording's decision stream over mod and returns the
// result plus the replay scheduler (whose divergence counters distinguish
// faithful replays from tolerant probe runs). It does not check the
// module hash — callers that need that guarantee use Verify or
// CheckModule first.
func Run(mod *mir.Module, rec *Recording, opt RunOptions) (*interp.Result, *sched.SegmentReplay) {
	sr := sched.NewSegmentReplay(rec.Segments, rec.Intns)
	cfg := interp.Config{Sched: sr, MaxSteps: rec.MaxSteps, Sink: opt.Sink}
	if opt.MaxSteps > 0 {
		cfg.MaxSteps = opt.MaxSteps
	}
	r := interp.RunModule(mod, cfg)
	if reg := metricsRegistry.Load(); reg != nil {
		reg.Counter("replay_runs_total").Inc()
	}
	return r, sr
}

// Verify replays the recording against mod and checks bit-identity: the
// module hash matches, the replayed result's fingerprint equals the
// recorded one field for field, and — for raw recordings — the replay
// consumed the stream with zero divergences. Minimized artifacts are
// edited streams that lean on the replay scheduler's deterministic
// fallbacks by design, so for them divergences are expected and only the
// fingerprint must match (the fallbacks are deterministic, hence the
// replay is still exactly reproducible). A nil error means the artifact
// reproduces its run exactly.
func Verify(mod *mir.Module, rec *Recording) error {
	if err := rec.CheckModule(mod); err != nil {
		return err
	}
	return rec.CheckRun(Run(mod, rec, RunOptions{}))
}

// CheckRun is Verify's check of a replay Run already made: r's
// fingerprint equals the recorded one, and sr diverged nowhere unless the
// recording is minimized.
func (rec *Recording) CheckRun(r *interp.Result, sr *sched.SegmentReplay) error {
	if d := sr.Diverged(); d > 0 && !rec.Minimized {
		return fmt.Errorf("replay: %d decisions diverged from the recording", d)
	}
	if got := FingerprintOf(r); got != rec.Fingerprint {
		return fmt.Errorf("replay: fingerprint mismatch\n got %+v\nwant %+v", got, rec.Fingerprint)
	}
	return nil
}

// metricsRegistry mirrors interp's pattern: when set, replay runs,
// written recordings and minimization probes report process-wide
// counters (replay_runs_total, replay_recordings_written_total,
// minimize_probes_total).
var metricsRegistry atomic.Pointer[obs.Registry]

// SetMetricsRegistry installs (or, with nil, removes) the metrics
// registry the replay layer reports into.
func SetMetricsRegistry(r *obs.Registry) { metricsRegistry.Store(r) }
