package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// With one sender and every request due at once, each request waits for
// all the earlier ones: its latency, counted from the due time, must
// include that wait, and its lag must show how late it was sent.
func TestOpenLoopCountsLatencyFromDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	dues := make([]time.Duration, 4)
	var inflight, peak atomic.Int32
	samples := openLoop(time.Now(), dues, 1, func(i int, due time.Time) (time.Time, bool) {
		if n := inflight.Add(1); n > peak.Load() {
			peak.Store(n)
		}
		time.Sleep(service)
		inflight.Add(-1)
		return time.Now(), true
	})
	if peak.Load() != 1 {
		t.Errorf("%d requests in flight, want at most 1", peak.Load())
	}
	for i, s := range samples {
		if !s.OK {
			t.Errorf("request %d not OK", i)
		}
		if min := time.Duration(i+1) * service; s.latency() < min {
			t.Errorf("request %d: latency %v, want >= %v (queued behind %d requests)", i, s.latency(), min, i)
		}
		if min := time.Duration(i) * service; s.lag() < min {
			t.Errorf("request %d: lag %v, want >= %v", i, s.lag(), min)
		}
		if s.Done-s.Sent < service {
			t.Errorf("request %d: service time %v, want >= %v", i, s.Done-s.Sent, service)
		}
	}
}

// A request that is sent on time has a lag near zero and a latency
// equal to its service time, even when it is due well after start.
func TestOpenLoopSendsAtDueTime(t *testing.T) {
	dues := []time.Duration{10 * time.Millisecond, 30 * time.Millisecond}
	start := time.Now()
	samples := openLoop(start, dues, 2, func(i int, due time.Time) (time.Time, bool) {
		return time.Now(), true
	})
	for i, s := range samples {
		if s.Sent < dues[i] {
			t.Errorf("request %d sent at %v, before its due time %v", i, s.Sent, dues[i])
		}
		if s.lag() > 20*time.Millisecond {
			t.Errorf("request %d: lag %v on an idle loop", i, s.lag())
		}
	}
}
