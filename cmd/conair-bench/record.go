package main

import (
	"sync/atomic"

	"conair/internal/replay"
	"conair/internal/runner"
)

// recordHook returns -record's run hook: it writes the recording of every
// failing run into dir through replay.WriteFailure, numbering the files
// in write order, and hands each run on to next — the telemetry hook
// under -serve — with the written path, so /runs reports the file and the
// flight flush does not write it again. The engine never hands a hook a
// recording of an interrupted run, so every file replays.
func recordHook(dir string, next runner.RunHook) runner.RunHook {
	var seq atomic.Int64
	return func(info runner.RunInfo) {
		if info.Recording != nil && !info.Result.Completed {
			path, err := replay.WriteFailure(dir, seq.Add(1), info.Recording)
			if err != nil {
				logger.Error("recording error", "err", err)
			}
			info.RecordingPath = path
		}
		if next != nil {
			next(info)
		}
	}
}
