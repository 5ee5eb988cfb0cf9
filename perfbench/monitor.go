package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"emx/internal/labd"
)

// segments is how many equal slices a serve workload's timed phase is
// cut into. The resident-set peak is taken per slice and the median over
// slices is reported, so one collection that peaks late does not move
// the result; the output also prints each slice's latency quantiles.
const segments = 5

// monitor samples the process every tick while a timed phase runs: its
// resident set and, for a lab, the run queue.
type monitor struct {
	stop chan struct{}
	done chan monitorResult
}

type monitorResult struct {
	segmentRSS []float64 // MB, the highest resident set seen in each segment
	queueDepth int       // deepest combined run queue seen
}

// peakRSSMB is the median over segments of each segment's highest
// resident set: the garbage collector's timing moves a single maximum by
// tens of percent between runs, the median of five far less.
func (r monitorResult) peakRSSMB() float64 { return median(r.segmentRSS) }

// startMonitor begins sampling. The resident set is attributed to
// segments slices of window (samples past its end go to the last).
// stats, when non-nil, is read every tick for the queue depth.
func startMonitor(window time.Duration, stats func() labd.Stats) *monitor {
	m := &monitor{stop: make(chan struct{}), done: make(chan monitorResult, 1)}
	res := monitorResult{segmentRSS: make([]float64, segments)}
	start := time.Now()
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			seg := min(int(time.Since(start)*segments/window), segments-1)
			if rss := residentMB(); rss > res.segmentRSS[seg] {
				res.segmentRSS[seg] = rss
			}
			if stats != nil {
				if d := stats().QueueDepth; d > res.queueDepth {
					res.queueDepth = d
				}
			}
			select {
			case <-m.stop:
				m.done <- res
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// finish stops sampling and returns what was seen.
func (m *monitor) finish() monitorResult {
	close(m.stop)
	return <-m.done
}

// residentMB returns the process's resident set from /proc/self/statm,
// or the memory the Go runtime obtained from the system where that file
// does not exist.
func residentMB() float64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 2 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
