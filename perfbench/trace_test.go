package main

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func sp(id, parent int64, name string, start, end int) span {
	return span{ID: id, Parent: parent, Name: name, Lane: 1, Start: time.Duration(start), End: time.Duration(end)}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		sp(1, 0, "root", 0, 100),
		sp(2, 1, "a", 10, 30),    // 20
		sp(3, 1, "b", 20, 50),    // overlaps a: union with a is 10..50 = 40
		sp(4, 1, "c", 90, 120),   // overhangs the root: 10 inside
		sp(5, 2, "leaf", 12, 18), // grandchild: counts against a only
		sp(6, 0, "other", 0, 10),
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 50, 2: 14, 3: 30, 4: 30, 5: 6, 6: 10} {
		if self[id] != want {
			t.Errorf("self(%d) = %d, want %d", id, self[id], want)
		}
	}
	byName := selfByName(append(spans, sp(7, 0, "other", 0, 5)))
	if byName["other"] != 15 {
		t.Errorf("selfByName(other) = %d, want 15", byName["other"])
	}
}

func TestSelfTimeDisjointAndNested(t *testing.T) {
	spans := []span{
		sp(1, 0, "root", 0, 100),
		sp(2, 1, "a", 0, 10),
		sp(3, 1, "b", 40, 60),
		sp(4, 1, "c", 45, 55),   // inside b
		sp(5, 1, "d", 100, 110), // starts where the root ends
	}
	if got := selfTimes(spans)[1]; got != 70 {
		t.Errorf("self(root) = %d, want 70", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	now := time.Now()
	if id := tr.add("x", 0, 1, now, now); id != 0 {
		t.Errorf("nil tracer add returned %d", id)
	}
	if id := tr.reserve(); id != 0 {
		t.Errorf("nil tracer reserve returned %d", id)
	}
	tr.addID(1, "x", 0, 1, now, now)
}

func TestWriteTraceEvents(t *testing.T) {
	tr := newTracer()
	t0 := tr.origin
	root := tr.reserve()
	child := tr.add("child", root, 1, t0.Add(2*time.Millisecond), t0.Add(3*time.Millisecond))
	tr.addID(root, "root", 0, 1, t0.Add(time.Millisecond), t0.Add(5*time.Millisecond))
	var buf bytes.Buffer
	if err := writeTrace(&buf, tr.snapshot(), map[string]string{"go": "x"}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent      `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.OtherData["go"] != "x" {
		t.Fatalf("trace = %s", buf.String())
	}
	r, c := doc.TraceEvents[0], doc.TraceEvents[1]
	if r.Name != "root" || r.Ph != "X" || r.TS != 1000 || r.Dur != 4000 || r.Args["self_us"] != 3000.0 {
		t.Errorf("root event = %+v", r)
	}
	if c.Name != "child" || c.Args["parent"] != float64(root) || c.Args["id"] != float64(child) {
		t.Errorf("child event = %+v", c)
	}
}

func TestTracerConcurrentUse(t *testing.T) {
	tr := newTracer()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := tr.reserve()
				now := time.Now()
				tr.add("child", id, g, now, now)
				tr.addID(id, "parent", 0, g, now, now)
			}
		}(g)
	}
	wg.Wait()
	spans := tr.snapshot()
	ids := make(map[int64]bool, len(spans))
	for _, s := range spans {
		if ids[s.ID] {
			t.Fatalf("span ID %d handed out twice", s.ID)
		}
		ids[s.ID] = true
	}
	if len(spans) != 800 {
		t.Errorf("%d spans recorded, want 800", len(spans))
	}
}
