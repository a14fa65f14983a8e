package main

import (
	"log/slog"
	"os"
	"sync/atomic"

	"conair/internal/experiments"
	"conair/internal/obs/serve"
)

// logger is the structured stderr logger all bench status output goes
// through (tables still go to stdout, so -json and piped table output are
// unaffected). The handler drops the time attribute: with wall-clock out
// of the line, the emitted keys are deterministic and greppable, and two
// runs differ only in the measured values.
var logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{
	ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
		if len(groups) == 0 && a.Key == slog.TimeKey {
			return slog.Attr{}
		}
		return a
	},
}))

// telemetry is the live server when -serve is set; nil otherwise. track()
// publishes section events through it, and the exit path flushes its
// flight recordings.
var telemetry *serve.Server

// startTelemetry brings up the live server on addr. main routes every
// engine job into the server's run registry through telemetry.Hook.
func startTelemetry(addr string) {
	telemetry = serve.New(experiments.Registry())
	bound, err := telemetry.Start(addr)
	if err != nil {
		logger.Error("telemetry server failed to start", "addr", addr, "err", err)
		os.Exit(1)
	}
	logger.Info("telemetry serving", "addr", bound.String(),
		"endpoints", "/metrics /runs /events /healthz /debug/pprof/")
}

// finishTelemetry is the -serve exit path: with -serve-wait it keeps the
// server up after the sections complete until SIGINT (so CI and humans
// can scrape a finished sweep), and on interrupt it flushes the retained
// flight recordings of failing runs that -record has not written already
// to flightDir.
func finishTelemetry(wait bool, flightDir string, interrupted <-chan struct{}, stop *atomic.Bool) {
	if wait && !stop.Load() {
		logger.Info("serve-wait: sections done, telemetry still serving; ^C to exit")
		<-interrupted
	}
	if stop.Load() && flightDir != "" {
		paths, err := telemetry.FlushFlight(flightDir)
		if err != nil {
			logger.Error("flight flush", "err", err)
		}
		logger.Info("flight recordings flushed", "count", len(paths), "dir", flightDir)
	}
	telemetry.Close()
}
