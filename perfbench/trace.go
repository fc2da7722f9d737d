package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a call the benchmark made
// into one of the program's layers, or a stage of its own.
type span struct {
	ID     int64
	Parent int64 // 0 for a root span
	Name   string
	Lane   int // trace-event thread: 1 for the driving goroutine, one per serving client
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil and pay one nil check per call site.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	next   int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) add(name string, parent int64, lane int, start, end time.Time) int64 {
	id := t.reserve()
	t.addID(id, name, parent, lane, start, end)
	return id
}

// reserve hands out an ID for a span whose children are recorded before
// it ends; record it later with addID.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// addID records a finished span under an ID from reserve.
func (t *tracer) addID(id int64, name string, parent int64, lane int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Lane: lane,
		Start: start.Sub(t.origin), End: end.Sub(t.origin),
	})
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children covers. Overlapping children
// (concurrent work) are not counted twice, and a child's overhang beyond
// its parent is clipped.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered measures how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	kids = append([]span(nil), kids...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if curHi < 0 || lo > curHi {
			flush()
			curLo, curHi = lo, hi
			continue
		}
		curHi = max(curHi, hi)
	}
	flush()
	return total
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// traceEvent is one complete ("X") event of the trace-event JSON format
// that chrome://tracing and Perfetto open.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeTrace writes spans as trace-event JSON, each event carrying its
// span and parent IDs and its self time; meta lands in otherData.
func writeTrace(w io.Writer, spans []span, meta map[string]string) error {
	self := selfTimes(spans)
	events := make([]traceEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, traceEvent{
			Name: s.Name, Cat: "perfbench", Ph: "X",
			TS:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "self_us": float64(self[s.ID]) / 1e3},
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []traceEvent      `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}{events, "ms", meta})
}
