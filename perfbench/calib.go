package main

import (
	"container/heap"
	"time"
)

// The hosts this benchmark runs on are shared virtual machines whose
// speed moves with their neighbours' load: on the 2-vCPU VM it was sized
// on, the same sim-p64 pass took 2.3 s at one time and about 7 s at
// another, in CPU time as well as wall time. A set of runs that straddles such a
// change spreads far past any useful bound, and no amount of repetition
// inside a run removes it. So every run also times a fixed kernel of the
// benchmark's own (it calls no code of the repository, so no change to
// the program can move it) and reports its host-bound timings scaled to
// the reference speed:
//
//	reported time = measured time × refSliceNS / measured slice ns
//	reported rate = measured rate × measured slice ns / refSliceNS
//
// The raw figures and the factor are printed beside the result.

// refSliceNS is the median wall time of one calibration slice on the
// reference host: a 2-vCPU x86-64 VM (Intel Xeon, 2.0 GHz nominal),
// GOMAXPROCS 1, go1.24.0, at its faster speed. It only sets the scale of
// the reported figures; a run on that host at that speed reports its
// raw figures.
const refSliceNS = 17.5e6

// sliceEvents is the size of one calibration slice, about 17 ms on the
// reference host.
const sliceEvents = 50_000

// calEvent is one event of the calibration kernel.
type calEvent struct {
	at, id uint64
	next   *calEvent
}

type calHeap []*calEvent

func (h calHeap) Len() int { return len(h) }
func (h calHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].id < h[j].id
}
func (h calHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)   { *h = append(*h, x.(*calEvent)) }
func (h *calHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// Sizes of the calibration kernel's state, chosen to resemble sim-p64's
// h=16 points: hundreds of parked coroutine goroutines and a few
// megabytes of state touched at random, so that a neighbour that
// crowds the shared caches slows the kernel as it slows the simulator.
const (
	calLive    = 1024    // events pending in the heap
	calThreads = 256     // goroutines a slice hands off to
	calWords   = 1 << 19 // uint64 words of shared state (4 MiB)
)

// speedKernel does n events of work shaped like the simulator's: a
// binary heap of timed events, a map keyed by event id, a pointer chase,
// reads and writes at random places in table (calWords long), and every eighth event
// a round trip to one of calThreads parked goroutines over unbuffered
// channels, as the simulated threads' coroutines are resumed and yield.
// Events are recycled, so the garbage collector, whose timing depends on
// whatever else the process holds, stays out of the measurement. It
// returns a checksum so the work cannot be optimised away.
func speedKernel(n int, table []uint64) uint64 {
	type handoff struct{ in, out chan uint64 }
	threads := make([]handoff, calThreads)
	for i := range threads {
		th := handoff{make(chan uint64), make(chan uint64)}
		threads[i] = th
		go func() {
			var local [64]uint64
			for v := range th.in {
				for k := range local {
					local[k] += v >> (k & 31)
				}
				th.out <- v*0x9e3779b97f4a7c15 + local[v&63]
			}
			close(th.out)
		}()
	}
	pool := make([]calEvent, calLive)
	h := make(calHeap, 0, calLive)
	byID := make(map[uint64]*calEvent, 2*calLive)
	for i := range pool {
		e := &pool[i]
		*e = calEvent{at: uint64(i * 7 % calLive), id: uint64(i), next: &pool[i*31%calLive]}
		heap.Push(&h, e)
		byID[e.id] = e
	}
	var sum, x uint64 = 0, 88172645463325252
	for i := 0; i < n; i++ {
		e := heap.Pop(&h).(*calEvent)
		delete(byID, e.id)
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += e.next.at
		w := x % calWords
		table[w] += e.at
		sum += table[(w*31+e.id)%calWords]
		if i%8 == 0 {
			th := threads[x%calThreads]
			th.in <- x
			sum += <-th.out
		}
		sum += e.at
		if p := byID[x%uint64(calLive+i)]; p != nil {
			e.next = p
		}
		e.at += 1 + x%64
		e.id = uint64(calLive + i)
		heap.Push(&h, e)
		byID[e.id] = e
	}
	for _, th := range threads {
		close(th.in)
		for range th.out {
		}
	}
	return sum
}

// calibrator collects calibration slices over a run.
type calibrator struct {
	slices []float64 // wall ns per slice
	table  []uint64  // the kernel's shared state, kept across slices
	sink   uint64
}

// slice times one calibration slice.
func (c *calibrator) slice() {
	if c.table == nil {
		c.table = make([]uint64, calWords)
	}
	t0 := time.Now()
	c.sink += speedKernel(sliceEvents, c.table)
	c.slices = append(c.slices, float64(time.Since(t0)))
}

// run times n slices back to back.
func (c *calibrator) run(n int) {
	for i := 0; i < n; i++ {
		c.slice()
	}
}

// factor is how much slower than the reference the host ran: the median
// slice over refSliceNS (above 1 on a slower host), or 1 before any
// slice was timed. Reported times are divided by it, rates multiplied.
func (c *calibrator) factor() float64 {
	if len(c.slices) == 0 {
		return 1
	}
	return median(c.slices) / refSliceNS
}
