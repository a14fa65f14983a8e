package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"conair/internal/experiments"
)

// benchDoc is the machine-readable output of -json: the selected sections'
// raw rows plus the work that produced them. Snapshots (BENCH_*.json) are
// these documents, regenerated with:
//
//	go run ./cmd/conair-bench -all -quick -workers 1 -json -progress=false > BENCH_N.json
//
// Section data and the perf block's run and step counts are deterministic
// (same flags → same bytes, at any worker count); only wallSeconds varies
// with the machine.
type benchDoc struct {
	Schema   int            `json:"schema"`
	Config   benchConfig    `json:"config"`
	Machine  benchMachine   `json:"machine"`
	Sections map[string]any `json:"sections"`
	Perf     benchPerf      `json:"perf"`
	// Metrics is the flattened registry snapshot (counters, gauges,
	// histogram aggregates), present when -metrics is set. Unlike the
	// section data it is NOT deterministic: it includes nanosecond
	// latency histograms and per-worker counters.
	Metrics map[string]int64 `json:"metrics,omitempty"`
}

type benchConfig struct {
	Runs          int  `json:"runs"`
	OverheadSeeds int  `json:"overheadSeeds"`
	Workers       int  `json:"workers"` // effective pool size (GOMAXPROCS when not set)
	Quick         bool `json:"quick"`
	All           bool `json:"all"`
}

type benchMachine struct {
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

type benchPerf struct {
	// WallSeconds is informational: it depends on the machine and its
	// load. Speed claims are made with perfbench, not from this field.
	WallSeconds float64 `json:"wallSeconds"`
	// Runs and Steps are totals over every interpreter run the sweep
	// executed (steps are virtual steps). They are deterministic and do
	// not depend on the worker count.
	Runs  int64 `json:"runs"`
	Steps int64 `json:"steps"`
}

// runJSON regenerates the selected sections and writes the document to w.
// It reports false when the selection is empty.
func runJSON(w io.Writer, sel selection) bool {
	if !sel.anySelected() {
		return false
	}
	doc := benchDoc{
		Schema: 1,
		Config: benchConfig{
			Runs:          sel.runs,
			OverheadSeeds: sel.seeds,
			Workers:       sel.workers,
			Quick:         sel.quick,
			All:           sel.all,
		},
		Machine: benchMachine{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Sections: map[string]any{},
	}

	reg := experiments.Registry()
	runs0 := reg.Counter("interp_runs_total").Value()
	steps0 := reg.Counter("interp_steps_total").Value()
	start := time.Now()

	for _, sec := range sections {
		if sec.rows != nil && sec.want(sel) {
			track(sec.name, func() { doc.Sections[sec.name] = sec.rows(sel) })
		}
	}

	doc.Perf = benchPerf{
		WallSeconds: time.Since(start).Seconds(),
		Runs:        reg.Counter("interp_runs_total").Value() - runs0,
		Steps:       reg.Counter("interp_steps_total").Value() - steps0,
	}
	if sel.metrics {
		doc.Metrics = reg.Snapshot()
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "conair-bench: encoding JSON:", err)
		os.Exit(1)
	}
	return true
}
