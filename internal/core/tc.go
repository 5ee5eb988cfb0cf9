package core

import (
	"fmt"

	"emx/internal/metrics"
	"emx/internal/packet"
	"emx/internal/sim"
)

// TC is the thread context handed to workload code — the analogue of the
// EM-X C thread library. Every method charges simulated cycles; Read and
// ReadBlock additionally suspend the thread (split-phase transactions),
// letting the EXU switch to the next ready thread.
//
// TC methods must only be called from the thread's own function; a TC is
// not valid after the function returns.
type TC struct {
	t   *thr
	arg packet.Word
}

// Arg returns the argument word the thread was invoked with.
func (tc *TC) Arg() packet.Word { return tc.arg }

// PE returns the processor this thread runs on.
func (tc *TC) PE() packet.PE { return tc.t.pe }

// P returns the machine's processor count.
func (tc *TC) P() int { return tc.t.m.Cfg.P }

// Name returns the thread's name.
func (tc *TC) Name() string { return tc.t.name }

// Now returns the current simulated time. The paper's measurements use a
// global clock; so does the simulator.
func (tc *TC) Now() sim.Time { return tc.t.m.Eng.Now() }

// Compute charges cycles of user computation (the thread's run length).
func (tc *TC) Compute(cycles sim.Time) {
	tc.t.do(op{kind: opCompute, cycles: cycles})
}

// Read performs a split-phase remote read of one word. The thread is
// suspended after the request packet is generated; the EXU switches to
// the next ready thread; the reply resumes this thread FIFO-fashion.
func (tc *TC) Read(addr packet.GlobalAddr) packet.Word {
	return tc.ReadBlock(addr, 1)[0]
}

// ReadBlock reads n consecutive words from a remote PE with a single
// block-read request (one of the EMC-Y's four send instructions; n = 1
// is a plain read). The thread suspends until all n reply packets have
// arrived.
func (tc *TC) ReadBlock(addr packet.GlobalAddr, n int) []packet.Word {
	if n <= 0 {
		panic(fmt.Sprintf("core: block read of %d words", n))
	}
	tc.check(addr, n)
	tc.t.do(op{kind: opRead, addr: addr, n: n})
	vals := tc.t.resumeVals
	tc.t.resumeVals = nil
	return vals
}

// Write sends a remote write packet. The thread continues immediately:
// remote writes do not suspend the issuing thread.
func (tc *TC) Write(addr packet.GlobalAddr, data packet.Word) {
	tc.check(addr, 1)
	tc.t.do(op{kind: opWrite, addr: addr, data: data})
}

// Spawn sends an invoke packet that starts fn as a new thread on pe (which
// may be this PE). The new thread receives arg through its TC.
func (tc *TC) Spawn(pe packet.PE, name string, arg packet.Word, fn ThreadFn) {
	tc.check(packet.GlobalAddr{PE: pe}, 0)
	tc.t.do(op{kind: opSpawn, addr: packet.GlobalAddr{PE: pe}, name: name, data: arg, fn: fn})
}

// Yield performs an explicit context switch: the thread is re-queued at
// the tail of the FIFO and the EXU dispatches the next packet. kind
// attributes the switch for Figure 9's classification.
func (tc *TC) Yield(kind metrics.SwitchKind) {
	tc.t.do(op{kind: opYield, sw: kind})
}

// SpinUntil repeatedly yields (attributed to kind) until cond holds,
// burning EXU cycles on every failed check — busy-wait semantics. The
// runtime's own synchronization (Barrier, WaitUntil) blocks instead;
// SpinUntil exists for workloads that model polling loops explicitly.
func (tc *TC) SpinUntil(kind metrics.SwitchKind, cond func() bool) {
	for !cond() {
		tc.Yield(kind)
	}
}

// LocalLoad reads this PE's own memory through the EXU/MCU port,
// contending with the by-passing DMA.
func (tc *TC) LocalLoad(off uint32) packet.Word {
	addr := packet.GlobalAddr{PE: tc.t.pe, Off: off}
	tc.check(addr, 1)
	tc.t.do(op{kind: opLocalLoad, addr: addr})
	return tc.t.resumeVal
}

// LocalStore writes this PE's own memory through the EXU/MCU port.
func (tc *TC) LocalStore(off uint32, data packet.Word) {
	addr := packet.GlobalAddr{PE: tc.t.pe, Off: off}
	tc.check(addr, 1)
	tc.t.do(op{kind: opLocalStore, addr: addr, data: data})
}

// check panics, inside the thread, unless n words starting at addr lie
// on one of the machine's PEs. The panic fails the run with an error;
// an out-of-range address reaching the engine would instead crash the
// packet handler that services it.
func (tc *TC) check(addr packet.GlobalAddr, n int) {
	cfg := &tc.t.m.Cfg
	if addr.PE < 0 || int(addr.PE) >= cfg.P {
		panic(fmt.Sprintf("core: PE%d outside the %d-PE machine", addr.PE, cfg.P))
	}
	if uint64(addr.Off)+uint64(n) > uint64(cfg.MemWords) {
		panic(fmt.Sprintf("core: words [%#x,%#x) outside PE%d's %#x-word memory",
			addr.Off, uint64(addr.Off)+uint64(n), addr.PE, cfg.MemWords))
	}
}

// PeekLocal reads local memory at zero simulated cost. Workloads use it
// inside compute phases whose cycle cost is charged wholesale via Compute
// with the paper's calibrated run lengths (e.g. 12 cycles per merge-loop
// iteration), so per-word charging would double-count.
func (tc *TC) PeekLocal(off uint32) packet.Word {
	return tc.t.m.Mem(tc.t.pe).Peek(off)
}

// PokeLocal writes local memory at zero simulated cost (see PeekLocal).
func (tc *TC) PokeLocal(off uint32, w packet.Word) {
	tc.t.m.Mem(tc.t.pe).Poke(off, w)
}

// GlobalClockCycles is the cost the paper attributes to reading the
// global clock during measurement; exposed for instrumentation-fidelity
// experiments.
const GlobalClockCycles sim.Time = 2
