package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Names are "<layer>.<call>"; the
// benchmark's own work (phases, operations, oracle checks) is layer
// "bench". Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Work is the span's unit count where one applies: instructions
	// parsed, interpreter steps run.
	Work int64 `json:"work,omitempty"`
}

func (s *span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: begin and end return at once.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: int32(parent), Start: now, End: now})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes span id, recording its unit count.
func (t *tracer) end(id int, work int64) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Work = work
	t.mu.Unlock()
}

// inner records a finished child of parent whose duration a layer
// reported itself (core.Report's AnalysisTime and TransformTime), placed
// offset after the parent's start.
func (t *tracer) inner(name string, parent int, offset, d time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	start := t.spans[parent].Start + offset.Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Parent: int32(parent), Start: start, End: start + d.Nanoseconds()})
	t.mu.Unlock()
}

// callStats aggregates the spans of one call name.
type callStats struct {
	Calls int64
	Total time.Duration
	Self  time.Duration
	Work  int64
}

func (c callStats) meanMs() float64 {
	if c.Calls == 0 {
		return 0
	}
	return c.Total.Seconds() * 1000 / float64(c.Calls)
}

func (c callStats) meanSelfMs() float64 {
	if c.Calls == 0 {
		return 0
	}
	return c.Self.Seconds() * 1000 / float64(c.Calls)
}

// summary is the per-call and per-layer breakdown of a trace.
type summary struct {
	Calls map[string]callStats
	// LayerSelf is each layer's self time: its spans' durations minus the
	// part of each interval its child spans cover.
	LayerSelf map[string]time.Duration
	TotalSelf time.Duration
}

// summarize computes self times from span nesting. Children of one span
// may run concurrently (a runner batch's jobs), so the covered part is the
// union of the child intervals, clipped to the parent.
func (t *tracer) summarize() summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	sum := summary{Calls: map[string]callStats{}, LayerSelf: map[string]time.Duration{}}
	for i := range t.spans {
		s := &t.spans[i]
		self := time.Duration(s.End-s.Start) - covered(t.spans, kids[i], s.Start, s.End)
		c := sum.Calls[s.Name]
		c.Calls++
		c.Total += time.Duration(s.End - s.Start)
		c.Self += self
		c.Work += s.Work
		sum.Calls[s.Name] = c
		sum.LayerSelf[s.layer()] += self
		sum.TotalSelf += self
	}
	return sum
}

// covered is the length of the union of the child intervals within
// [lo, hi].
func covered(spans []span, kids []int, lo, hi int64) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	total += curB - curA
	return time.Duration(total)
}
