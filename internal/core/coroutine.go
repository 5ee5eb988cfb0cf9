//go:build go1.23

package core

import (
	"fmt"
	"iter"
	"sync"

	"emx/internal/metrics"
	"emx/internal/packet"
	"emx/internal/sim"
)

// ThreadFn is the body of a simulated thread. It runs as a coroutine: the
// simulation engine resumes it, it performs machine operations through tc
// (each charging simulated cycles and possibly suspending the thread), and
// it owns the EXU exclusively between two such operations.
type ThreadFn func(tc *TC)

// killSentinel unwinds a coroutine that teardown stopped while it was
// parked on an operation; the coroutine recovers it, so it never
// escapes Machine.
type killSentinel struct{}

// opKind names a machine operation a thread hands to the engine. Each
// corresponds to one or more EMC-Y instructions; the exu translates it
// into cycle charges and packets and schedules exactly one engine event
// for it.
type opKind uint8

const (
	// opCompute charges cycles of user computation.
	opCompute opKind = iota
	// opWrite sends a remote write packet; the thread does not suspend.
	opWrite
	// opLocalStore writes the PE's own memory through the EXU/MCU port.
	opLocalStore
	// opLocalLoad reads the PE's own memory through the EXU/MCU port.
	opLocalLoad
	// opRead issues a split-phase (block) read and suspends until all
	// words arrive.
	opRead
	// opWriteSync sends a barrier round token (a KindSync packet).
	opWriteSync
	// opSpawn sends an invoke packet enabling fn on a (possibly remote) PE.
	opSpawn
	// opYield re-queues the thread at the tail of the FIFO (explicit
	// context switch); sw classifies why, for Figure 9.
	opYield
	// opWait suspends the thread on a wait set until cond holds.
	opWait
	// opExit reports that the thread's body returned (or panicked).
	opExit
)

// op is one operation a thread yields to the engine. It crosses the
// coroutine switch by value, so yielding does not allocate; each kind
// uses only the fields named beside them.
type op struct {
	kind   opKind
	sw     metrics.SwitchKind // opYield, opWait
	cycles sim.Time           // opCompute
	n      int                // opRead: words to read
	addr   packet.GlobalAddr  // all but opCompute, opYield, opWait; only PE for opSpawn
	data   packet.Word        // opWrite, opWriteSync, opLocalStore; opSpawn's argument
	name   string             // opSpawn
	fn     ThreadFn           // opSpawn
	ws     *WaitSet           // opWait
	cond   func() bool        // opWait
}

// thrState tracks where a thread is in its lifecycle, for diagnostics.
type thrState uint8

const (
	stReady thrState = iota
	stRunning
	stSuspendedRead
	stBlocked // waiting on a WaitSet condition
	stQueued
	stDone
)

func (s thrState) String() string {
	switch s {
	case stReady:
		return "ready"
	case stRunning:
		return "running"
	case stSuspendedRead:
		return "suspended-on-read"
	case stBlocked:
		return "blocked-on-condition"
	case stQueued:
		return "queued"
	case stDone:
		return "done"
	}
	return "?"
}

// readWait tracks an outstanding read (single or block) for a thread.
type readWait struct {
	base      uint32
	buf       []packet.Word
	remaining int
}

// thr is the engine-side handle of one simulated thread.
type thr struct {
	m     *Machine
	pe    packet.PE
	frame uint32
	name  string
	state thrState
	rw    *readWait

	// co runs the thread's body; nil once the body has returned.
	co *coroutine
	// panicked is a workload panic recovered inside the coroutine.
	panicked any

	// Continuation context, staged here instead of in per-event
	// closures: the result the body reads after a load (resumeVal) or
	// read (resumeVals), and the packet the exu's handlers inject.
	resumeVal  packet.Word
	resumeVals []packet.Word
	pendingPkt *packet.Packet
}

func (t *thr) String() string {
	return fmt.Sprintf("PE%d:%s(frame %d, %s)", t.pe, t.name, t.frame, t.state)
}

// do hands o to the engine and parks the body until the engine resumes
// it. Called only from the coroutine.
func (t *thr) do(o op) {
	if !t.co.yield(o) {
		panic(killSentinel{})
	}
}

// coroutine is an iter.Pull coroutine that runs thread bodies. The
// engine resumes it with next and it hands back the body's next
// operation; exactly one coroutine runs at a time, and only while the
// engine waits in next, so workload code never races with the
// simulator. When a body returns, the coroutine yields opExit and parks,
// ready to run the next thread's body.
type coroutine struct {
	next  func() (op, bool)
	yield func(op) bool
	stop  func()

	// The body to run and its thread, set before the first next.
	t   *thr
	fn  ThreadFn
	arg packet.Word
}

// run executes the current body. It recovers a workload panic into the
// thread, and the sentinel with which stop unwinds a parked body.
func (c *coroutine) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, killed := r.(killSentinel); !killed {
				c.t.panicked = r
			}
		}
	}()
	c.fn(&TC{t: c.t, arg: c.arg})
}

// idle holds parked coroutines between threads, process-wide, up to
// maxIdle (pool_race.go, pool_norace.go): a finished thread's coroutine
// runs a later thread of any machine, and one released beyond the cap
// exits. Only race builds keep any. There each coroutine that exits
// keeps about 5 KB of detector state, because the runtime's coroutine
// exit skips the detector's goroutine-end hook; reuse bounds coroutine
// creation by the peak number of live threads instead of the total. A
// race run of the load-lab determinism test peaked at 4.2 GB without
// the pool and 1.0 GB with it.
var idle struct {
	sync.Mutex
	cos []*coroutine
}

// start binds a coroutine, reused or new, to run fn with arg as t's
// body. The body first runs when the engine calls next.
func (t *thr) start(fn ThreadFn, arg packet.Word) {
	idle.Lock()
	var c *coroutine
	if n := len(idle.cos); n > 0 {
		c = idle.cos[n-1]
		idle.cos = idle.cos[:n-1]
	}
	idle.Unlock()
	if c == nil {
		c = &coroutine{}
		c.next, c.stop = iter.Pull(func(yield func(op) bool) {
			c.yield = yield
			for {
				c.run()
				if !yield(op{kind: opExit}) {
					return
				}
			}
		})
	}
	c.t, c.fn, c.arg = t, fn, arg
	t.co = c
}

// release hands the coroutine of a thread whose body returned back to
// the idle pool.
func (t *thr) release() {
	c := t.co
	t.co = nil
	c.t, c.fn = nil, nil
	idle.Lock()
	if len(idle.cos) < maxIdle {
		idle.cos = append(idle.cos, c)
		c = nil
	}
	idle.Unlock()
	if c != nil {
		c.stop()
	}
}
