package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"syscall"
	"time"
)

// poissonSchedule returns the due offsets of a Poisson arrival process
// at rate per second over window, conditioned on its expected count: the
// run always offers round(rate·window) requests, at sorted uniform
// times drawn from seed. Fixing the count keeps a seed's luck out of
// the offered load, and a throughput figure comparable across seeds.
// Offsets strictly increase, so no two requests share a due time (the
// traced run uses the due time to find a request's spans).
func poissonSchedule(seed int64, rate float64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(rate * window.Seconds()))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	for i := 1; i < n; i++ {
		if out[i] <= out[i-1] {
			out[i] = out[i-1] + 1
		}
	}
	return out
}

// sample is one open-loop request, with offsets from the run's start.
type sample struct {
	Due  time.Duration // when the schedule wanted it sent
	Sent time.Duration // when a sender actually started it
	Done time.Duration // when its response arrived
	OK   bool          // a 2xx answer that matched the expected result
}

// latency is measured from the due time, so a stall that delays later
// sends is charged to every request it delayed.
func (s sample) latency() time.Duration { return s.Done - s.Due }

// lag is how late the request was sent against its due time.
func (s sample) lag() time.Duration { return s.Sent - s.Due }

// issueFunc sends request i, which was due at due. It returns when the
// response arrived (before any checking of the body) and whether the
// answer was correct.
type issueFunc func(i int, due time.Time) (done time.Time, ok bool)

// openLoop sends every request at its due offset from start, with at
// most inflight outstanding. One dispatcher hands the requests, in due
// order, to a fixed set of senders; when all senders are busy the
// dispatcher waits, so the request goes out late and its latency still
// counts from its due time. It returns once every request completed.
func openLoop(start time.Time, dues []time.Duration, inflight int, issue issueFunc) []sample {
	samples := make([]sample, len(dues))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				sent := time.Since(start)
				done, ok := issue(i, start.Add(dues[i]))
				samples[i] = sample{Due: dues[i], Sent: sent, Done: done.Sub(start), OK: ok}
			}
		}()
	}
	for i, d := range dues {
		sleepUntil(start.Add(d))
		work <- i
	}
	close(work)
	wg.Wait()
	return samples
}

// coarseSlack is how far ahead of a due time sleepUntil stops trusting
// the runtime timer, which on Linux can wake a millisecond late.
const coarseSlack = 2 * time.Millisecond

// sleepUntil returns at t, as precisely as the host allows: the runtime
// timer covers all but the last coarseSlack, and nanosleep(2), which
// wakes within tens of microseconds, covers the rest.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - coarseSlack; d > 0 {
		time.Sleep(d)
	}
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) only sends early by the remainder
	}
}
