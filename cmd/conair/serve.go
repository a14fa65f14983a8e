package main

// -serve wiring: every conair mode can expose the live telemetry plane.
// The one-shot modes (run, record, replay, minimize, trace, sanitize) register
// their runs in the server's run registry and then keep serving until ^C,
// so a finished command can still be scraped, profiled, and post-mortemed:
//
//	conair -serve :9090 -sanitize prog.mir
//	curl localhost:9090/runs              # every schedule searched
//	curl localhost:9090/runs/3/recording  # replayable .cnr of a failure
//
// Run, trace and sanitize runs are armed with the always-on flight
// recorder, so the schedule behind a failure or a report arrives as a
// downloadable artifact even though -record was never passed.

import (
	"fmt"
	"os"
	"os/signal"

	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/obs"
	"conair/internal/obs/serve"
	"conair/internal/replay"
	"conair/internal/runner"
)

// telemetry is the live server when -serve is set (nil otherwise);
// telemetryHook is its run-registry feed.
var (
	telemetry     *serve.Server
	telemetryHook runner.RunHook
)

// startTelemetry brings up the live endpoint and routes the interpreter
// and replay metric streams into its registry, so even one-shot CLI modes
// expose a real /metrics scrape.
func startTelemetry(addr string) {
	reg := obs.NewRegistry()
	interp.SetMetricsRegistry(reg)
	replay.SetMetricsRegistry(reg)
	telemetry = serve.New(reg)
	telemetryHook = telemetry.Hook()
	bound, err := telemetry.Start(addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "conair: telemetry serving on http://%s (/metrics /runs /events /healthz /debug/pprof/)\n", bound)
}

// registerRun feeds one completed run into the telemetry run registry; a
// no-op when -serve is off.
func registerRun(info runner.RunInfo) {
	if telemetryHook != nil {
		telemetryHook(info)
	}
}

// runLive runs m under cfg as one engine job (see runJob). Under -serve
// the job is armed with the always-on bounded flight recorder, so a
// failing run yields a replayable artifact at /runs/{id}/recording
// without -record.
func runLive(m *mir.Module, cfg interp.Config, label string, seed int64) *interp.Result {
	limit := 0
	if telemetry != nil {
		limit = runner.DefaultFlightLimit
	}
	r, _ := runJob(m, cfg, replay.Meta{Seed: seed, Label: label}, limit)
	return r
}

// runJob runs m under cfg as one engine job, so a panicking program comes
// back as a failed run, and feeds the run into the telemetry run
// registry. A positive limit arms the job's flight recorder with that
// many segments, and the run's recording is returned (nil without one,
// or when the run outgrew it).
func runJob(m *mir.Module, cfg interp.Config, meta replay.Meta, limit int) (*interp.Result, *replay.Recording) {
	var rec *replay.Recording
	eng := runner.Engine{Workers: 1, FlightLimit: limit, RunHook: func(info runner.RunInfo) {
		rec = info.Recording
		registerRun(info)
	}}
	return eng.RunJob(m, cfg, meta), rec
}

// waitTelemetry keeps the server alive after the command's work completes
// until SIGINT, then shuts it down. A no-op when -serve is off.
func waitTelemetry() {
	if telemetry == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "conair: work done, telemetry still serving; ^C to exit")
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	telemetry.Close()
	telemetry = nil
}
