package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// series collects one operation kind's latencies, keyed by input (a
// program, and for runs its scheduler seed) and grouped by pass. Every
// input's samples are alike, so its median is steady. Operations from
// heterogeneous inputs are summarized as the geometric mean of per-input
// medians, so one slow input's share of the samples does not set the
// figure, and tails as a quantile over the per-input medians: the tail
// the slowest inputs set, not a burst of interference in one pass.
// Throughput is computed per pass and reported as the median over passes.
type series struct {
	mu    sync.Mutex
	byKey map[string][]float64 // seconds
	keys  []string             // first-seen order
	cur   []float64            // the open pass's samples
	// passes holds each closed pass's samples and wall time in seconds.
	passes []passStat
}

type passStat struct {
	vals []float64
	wall float64
}

func newSeries() *series { return &series{byKey: map[string][]float64{}} }

func (s *series) add(key string, d time.Duration) {
	v := d.Seconds()
	s.mu.Lock()
	if _, ok := s.byKey[key]; !ok {
		s.keys = append(s.keys, key)
	}
	s.byKey[key] = append(s.byKey[key], v)
	s.cur = append(s.cur, v)
	s.mu.Unlock()
}

// closePass ends the open pass. A zero wall time means the pass's
// operations ran one after another outside a timed phase (set-up), and
// their latencies sum to its wall time.
func (s *series) closePass(wall time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cur) == 0 {
		return
	}
	w := wall.Seconds()
	if w <= 0 {
		for _, v := range s.cur {
			w += v
		}
	}
	s.passes = append(s.passes, passStat{vals: s.cur, wall: w})
	s.cur = nil
}

func (s *series) count() int {
	n := 0
	for _, p := range s.passes {
		n += len(p.vals)
	}
	return n
}

// perSecond is the median over passes of operations completed per second
// of the pass's wall time.
func (s *series) perSecond() float64 {
	var rates []float64
	for _, p := range s.passes {
		if p.wall > 0 {
			rates = append(rates, float64(len(p.vals))/p.wall)
		}
	}
	return quantile(rates, passQ)
}

// quantile is the q-quantile over inputs of each input's median latency,
// in seconds.
func (s *series) quantile(q float64) float64 {
	meds := make([]float64, len(s.keys))
	for i, k := range s.keys {
		meds[i] = quantile(s.byKey[k], inputQ)
	}
	return quantile(meds, q)
}

// geomeanOfMedians is the geometric mean over inputs of each input's
// median latency, in seconds.
func (s *series) geomeanOfMedians() float64 {
	if len(s.keys) == 0 {
		return 0
	}
	logSum := 0.0
	for _, k := range s.keys {
		logSum += math.Log(quantile(s.byKey[k], inputQ))
	}
	return math.Exp(logSum / float64(len(s.keys)))
}

func (s *series) derivedRate() float64 {
	sum := 0.0
	for _, k := range s.keys {
		sum += quantile(s.byKey[k], 0)
	}
	return float64(len(s.keys)) / sum
}

// medians returns each input's median latency in milliseconds.
func (s *series) medians() map[string]float64 {
	out := make(map[string]float64, len(s.keys))
	for _, k := range s.keys {
		out[k] = median(s.byKey[k]) * 1e3
	}
	return out
}

var inputQ, passQ = 0.5, 0.5

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks; v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quantileInt is quantile over integer samples.
func quantileInt(v []int64, q float64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return quantile(f, q)
}
