package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"emx/internal/metrics"
	"emx/internal/packet"
	"emx/internal/sim"
)

// TestOutOfRangeAddressFailsRun checks that every operation taking an
// address rejects one outside the machine inside the thread, so Run
// returns an error instead of panicking from the engine handler that
// would have serviced it.
func TestOutOfRangeAddressFailsRun(t *testing.T) {
	const words = 1 << 16 // newTestMachine's MemWords
	cases := []struct {
		name string
		fn   ThreadFn
	}{
		{"LocalStore", func(tc *TC) { tc.LocalStore(1<<30, 1) }},
		{"LocalLoad", func(tc *TC) { tc.LocalLoad(words) }},
		{"Read offset", func(tc *TC) { tc.Read(packet.GlobalAddr{PE: 1, Off: 1 << 30}) }},
		{"Read PE", func(tc *TC) { tc.Read(packet.GlobalAddr{PE: 7}) }},
		{"Read negative PE", func(tc *TC) { tc.Read(packet.GlobalAddr{PE: -1}) }},
		{"ReadBlock tail", func(tc *TC) { tc.ReadBlock(packet.GlobalAddr{PE: 1, Off: words - 2}, 4) }},
		{"ReadBlock empty", func(tc *TC) { tc.ReadBlock(packet.GlobalAddr{PE: 1}, 0) }},
		{"Write offset", func(tc *TC) { tc.Write(packet.GlobalAddr{PE: 1, Off: words}, 1) }},
		{"Write PE", func(tc *TC) { tc.Write(packet.GlobalAddr{PE: 2}, 1) }},
		{"Spawn PE", func(tc *TC) { tc.Spawn(7, "child", 0, func(*TC) {}) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := newTestMachine(t, 2)
			m.SpawnAt(0, "bad", 0, func(tc *TC) {
				tc.Compute(3)
				c.fn(tc)
			})
			_, err := m.Run()
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("err = %v, want the thread's range check to fail the run", err)
			}
		})
	}
}

// busyGoroutines counts goroutines other than idle coroutines.
func busyGoroutines() int {
	idle.Lock()
	defer idle.Unlock()
	return runtime.NumGoroutine() - len(idle.cos)
}

// TestNoCoroutineLeakAfterFailedRun checks that every failure path
// tears down all coroutines, including threads parked mid-operation
// when the run stopped: afterwards every coroutine has exited or is
// idle.
func TestNoCoroutineLeakAfterFailedRun(t *testing.T) {
	// parked spawns threads that are suspended when the run fails: one
	// blocked on a condition that never holds (alone, a deadlock), one
	// computing after a read, and one that finished.
	parked := func(m *Machine) {
		ws := m.NewWaitSet()
		m.SpawnAt(1, "blocked", 0, func(tc *TC) {
			tc.WaitUntil(metrics.SwitchIterSync, ws, func() bool { return false })
		})
		m.SpawnAt(1, "reader", 0, func(tc *TC) {
			tc.Compute(10)
			tc.Read(packet.GlobalAddr{PE: 0})
			tc.Compute(1_000_000)
		})
		m.SpawnAt(1, "finished", 0, func(tc *TC) { tc.Compute(1) })
	}
	cases := []struct {
		name   string
		budget sim.Time // MaxCycles; 0 keeps newTestMachine's
		fn     ThreadFn
	}{
		{"panic", 0, func(tc *TC) {
			tc.Compute(50)
			panic("boom")
		}},
		{"deadlock", 0, func(tc *TC) { tc.Compute(5) }},
		{"max cycles", 1000, func(tc *TC) {
			tc.SpinUntil(metrics.SwitchExplicit, func() bool { return false })
		}},
		{"out of range", 0, func(tc *TC) {
			tc.Compute(50)
			tc.LocalStore(1<<30, 1)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := busyGoroutines()
			m := newTestMachine(t, 2)
			if c.budget > 0 {
				m.Cfg.MaxCycles = c.budget
			}
			parked(m)
			m.SpawnAt(0, "failing", 0, c.fn)
			if _, err := m.Run(); err == nil {
				t.Fatal("run succeeded, want a failure")
			}
			deadline := time.Now().Add(5 * time.Second)
			for busyGoroutines() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d busy goroutines after the run, %d before", busyGoroutines(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestCoroutinesReused checks that a finished thread's coroutine runs a
// later thread: every thread's coroutine goes idle when it finishes, and
// a second run of the same shape creates no new ones.
func TestCoroutinesReused(t *testing.T) {
	if maxIdle == 0 {
		t.Skip("only race builds keep idle coroutines")
	}
	idleCount := func() int {
		idle.Lock()
		defer idle.Unlock()
		return len(idle.cos)
	}
	run := func() {
		m := newTestMachine(t, 2)
		for pe := packet.PE(0); pe < 2; pe++ {
			for h := 0; h < 4; h++ {
				m.SpawnAt(pe, "w", 0, func(tc *TC) {
					tc.Read(packet.GlobalAddr{PE: 1 - tc.PE()})
					tc.Compute(5)
				})
			}
		}
		mustRun(t, m)
	}
	run()
	first := idleCount()
	if first < 8 {
		t.Fatalf("%d idle coroutines after a run of 8 threads", first)
	}
	before := runtime.NumGoroutine()
	run()
	if after := runtime.NumGoroutine(); after != before || idleCount() != first {
		t.Fatalf("second run: %d goroutines (%d before), %d idle (%d before): coroutines not reused",
			after, before, idleCount(), first)
	}
}
