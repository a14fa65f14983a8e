package obs_test

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"conair/internal/obs"
	"conair/internal/obs/obstest"
)

// TestWriteTextValidates: everything WriteText emits — help text,
// histograms, counters — must pass the validator.
func TestWriteTextValidates(t *testing.T) {
	r := obs.NewRegistry()
	r.SetHelp("runs_total", "total runs; escapes: back\\slash and\nnewline")
	r.Counter("runs_total").Add(7)
	r.SetHelp("depth", "current queue depth")
	r.Gauge("depth").Set(-2) // gauges may be negative
	h := r.Histogram("lat_ns", obs.ExpBuckets(10, 10, 5))
	for _, v := range []int64{3, 30, 3_000, 3_000_000} {
		h.Observe(v)
	}
	r.Histogram("empty_hist", []int64{1, 2}) // declared, never observed

	var b bytes.Buffer
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if err := obstest.ValidateExposition(b.Bytes()); err != nil {
		t.Fatalf("WriteText output rejected: %v\n%s", err, b.String())
	}
	text := b.String()
	for _, want := range []string{
		"# HELP runs_total total runs; escapes: back\\\\slash and\\nnewline\n",
		"# HELP depth current queue depth\n# TYPE depth gauge\ndepth -2\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestRegistryHammer is the concurrency satellite: N goroutines hammer
// Inc/Add/Observe on shared metrics while the main goroutine loops
// Snapshot and WriteText; every exposition read mid-flight must validate,
// and the final totals must balance. Run under -race this doubles as the
// registry's data-race certificate.
func TestRegistryHammer(t *testing.T) {
	r := obs.NewRegistry()
	r.SetHelp("hammer_ops_total", "ops performed by the hammer goroutines")
	const (
		workers = 8
		iters   = 2_000
	)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			h := r.Histogram("hammer_lat_ns", obs.ExpBuckets(10, 10, 6))
			for i := 0; i < iters; i++ {
				r.Counter("hammer_ops_total").Inc()
				r.Gauge("hammer_inflight").Add(1)
				h.Observe(int64(i * (k + 1)))
				r.Gauge("hammer_inflight").Add(-1)
				// Also churn the name maps, not just the metric values.
				r.Counter("hammer_worker_ops_total").Inc()
				r.SetHelp("hammer_inflight", "ops currently in flight")
			}
		}(k)
	}

	// Reader loop: snapshot + exposition under fire until writers finish.
	readerDone := make(chan error, 1)
	go func() {
		var b bytes.Buffer
		for !stop.Load() {
			snap := r.Snapshot()
			if snap["hammer_ops_total"] < 0 {
				readerDone <- errorfNoFormat("negative counter in snapshot")
				return
			}
			b.Reset()
			if err := r.WriteText(&b); err != nil {
				readerDone <- err
				return
			}
			if err := obstest.ValidateExposition(b.Bytes()); err != nil {
				readerDone <- err
				return
			}
		}
		readerDone <- nil
	}()

	wg.Wait()
	stop.Store(true)
	if err := <-readerDone; err != nil {
		t.Fatalf("reader under fire: %v", err)
	}

	if got := r.Counter("hammer_ops_total").Value(); got != workers*iters {
		t.Errorf("hammer_ops_total = %d, want %d", got, workers*iters)
	}
	if got := r.Gauge("hammer_inflight").Value(); got != 0 {
		t.Errorf("hammer_inflight = %d after quiesce, want 0", got)
	}
	if got := r.Histogram("hammer_lat_ns", nil).Snapshot().Count; got != workers*iters {
		t.Errorf("hammer_lat_ns count = %d, want %d", got, workers*iters)
	}
}

// errorfNoFormat keeps the reader goroutine free of testing.T (which must
// not be used off the test goroutine after the test can finish).
func errorfNoFormat(msg string) error { return &readerErr{msg} }

type readerErr struct{ msg string }

func (e *readerErr) Error() string { return e.msg }
