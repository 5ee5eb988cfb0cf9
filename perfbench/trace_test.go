package main

import (
	"testing"
	"time"
)

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "cluster.do", Start: at(0), End: at(100)},
		// Overlapping children (a retry racing the first attempt) count
		// once; a child running past its parent is clipped.
		{ID: 2, Parent: 1, Name: "service.handler", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "service.handler", Start: at(20), End: at(50)},
		{ID: 4, Parent: 1, Name: "service.handler", Start: at(90), End: at(120)},
		// A grandchild only reduces its own parent.
		{ID: 5, Parent: 3, Name: "harness.run_point", Start: at(25), End: at(45)},
		{ID: 6, Name: "request", Start: at(0), End: at(100)},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{
		1: 50 * time.Millisecond, // 100 - [10,50] - [90,100]
		2: 20 * time.Millisecond,
		3: 10 * time.Millisecond, // 30 - 20
		4: 30 * time.Millisecond,
		5: 20 * time.Millisecond,
		6: 100 * time.Millisecond,
	} {
		if self[id] != want {
			t.Errorf("span %d: self %v, want %v", id, self[id], want)
		}
	}
	byName := selfByName(spans)
	if got := byName["service.handler"]; got != 20 {
		t.Errorf("mean handler self time %g ms, want 20", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.id(); id != 0 {
		t.Errorf("nil tracer id %d", id)
	}
	tr.record(span{Name: "x"}) // must not panic
}

func TestSpanHeaderRoundTrip(t *testing.T) {
	req, parent, ok := parseSpanHeader("12/345")
	if !ok || req != 12 || parent != 345 {
		t.Errorf("parse = %d, %d, %v", req, parent, ok)
	}
	for _, bad := range []string{"", "12", "a/1", "1/b"} {
		if _, _, ok := parseSpanHeader(bad); ok {
			t.Errorf("parseSpanHeader(%q) accepted", bad)
		}
	}
}
