package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"runtime/debug"
	"time"

	"emx/internal/harness"
	"emx/internal/metrics"
)

// simP64Digest pins the simulated statistics of one sim-p64 pass at the
// default seed. A host-only change (engine, coroutines, allocation)
// must leave it untouched; only a change to the simulated model may
// move it, and that change must update it here.
const simP64Digest = "414b4933cfe69d36ba64d5f5947c821e2b5c8986f7a70617803680fa995468d2"

// defaultSeed is the seed the pinned digest was taken at.
const defaultSeed = 1

// simThreads are the thread depths of sim-p64: h=1 shows engine
// dispatch cost, h=16 (1,024 live threads, FIFO spill path active)
// shows coroutine-switch cost.
var simThreads = []int{1, 4, 16}

// simPoint is one sim-p64 point: the paper's heaviest machine (P=64)
// at a fixed simulated size, with the default shard selection.
type simPoint struct {
	name string
	spec harness.PointSpec
}

func simPoints(seed int64) []simPoint {
	var out []simPoint
	for _, w := range []harness.Workload{harness.Bitonic, harness.FFT} {
		for _, h := range simThreads {
			out = append(out, simPoint{
				name: fmt.Sprintf("%s-h%d", w, h),
				spec: harness.PointSpec{Workload: w, P: 64, SimN: 8192, H: h, Seed: seed},
			})
		}
	}
	return out
}

// knownVerifyDefects lists points whose Verify run fails because of a
// known simulator defect, not because the benchmark measured anything
// wrong. The FFT self-check (which runs the full transform, a superset
// of the measured first log2(P) stages) disagrees with the reference at
// P=64, N=8192, h=1 for every seed, while h>=2 passes. The failure is
// still run and printed on every setup; when the defect is fixed the
// benchmark reports the entry as stale and it must be removed.
var knownVerifyDefects = map[string]bool{"fft-h1": true}

// digestRun hashes every simulated statistic of a run: makespan, event
// and network counts, and the per-PE breakdown and counters. Host
// timing is left out, so the digest repeats exactly across hosts.
func digestRun(h hash.Hash, r *metrics.Run) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	h.Write([]byte(r.Label))
	for _, v := range []int{r.P, r.H, r.N, r.PaperN, len(r.PEs)} {
		put(uint64(v))
	}
	put(uint64(r.Makespan))
	put(r.PacketsSent)
	put(r.PacketsHops)
	put(uint64(r.NetQueueDelay))
	put(r.SimEvents)
	for i := range r.PEs {
		pe := &r.PEs[i]
		put(uint64(pe.Times.Compute))
		put(uint64(pe.Times.Overhead))
		put(uint64(pe.Times.Switch))
		put(uint64(pe.Times.Comm))
		for _, s := range pe.Switches {
			put(s)
		}
		for _, v := range []uint64{pe.RemoteReads, pe.RemoteWrites, pe.Invokes, pe.SyncsSent,
			pe.Spills, pe.Dispatches, pe.ServicedDMA, pe.ServicedEXU} {
			put(v)
		}
	}
}

// simCounts are the simulated counters of one pass, summed over its
// points. They repeat exactly for a seed.
type simCounts struct {
	events, packets, hops, queueDelay uint64
	remoteRead, iterSync, threadSync  uint64
	dispatches, spills, dmaServiced   uint64
}

func (c *simCounts) add(r *metrics.Run) {
	c.events += r.SimEvents
	c.packets += r.PacketsSent
	c.hops += r.PacketsHops
	c.queueDelay += uint64(r.NetQueueDelay)
	for i := range r.PEs {
		pe := &r.PEs[i]
		c.remoteRead += pe.Switches[metrics.SwitchRemoteRead]
		c.iterSync += pe.Switches[metrics.SwitchIterSync]
		c.threadSync += pe.Switches[metrics.SwitchThreadSync]
		c.dispatches += pe.Dispatches
		c.spills += pe.Spills
		c.dmaServiced += pe.ServicedDMA
	}
}

// simPass is one timed pass over every sim-p64 point.
type simPass struct {
	wall    time.Duration   // the points' RunPoint calls, without calibration
	pointNS []time.Duration // per point, in simPoints order
	digest  string
	ok      bool // the digest matched (see simPasses)
	counts  simCounts
	perH    map[int][2]float64 // h -> {wall ns, events}
}

// simSlicesPerPoint is how many calibration slices run before each
// point, so the host's speed is sampled all through the run.
const simSlicesPerPoint = 2

func runSimPass(points []simPoint, cal *calibrator, tr *tracer, passSpan int64) (simPass, error) {
	p := simPass{perH: map[int][2]float64{}}
	h := sha256.New()
	for _, pt := range points {
		cal.run(simSlicesPerPoint)
		id := tr.id()
		t0 := time.Now()
		run, err := harness.RunPoint(pt.spec)
		t1 := time.Now()
		tr.record(span{ID: id, Parent: passSpan, Name: "harness.run_point", Start: t0, End: t1})
		if err != nil {
			return p, fmt.Errorf("%s: %w", pt.name, err)
		}
		d := t1.Sub(t0)
		p.wall += d
		p.pointNS = append(p.pointNS, d)
		digestRun(h, run)
		p.counts.add(run)
		acc := p.perH[pt.spec.H]
		p.perH[pt.spec.H] = [2]float64{acc[0] + float64(d), acc[1] + float64(run.SimEvents)}
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// simSetup runs every point once with the workload's self-check on,
// records every failure that is not a known defect, and returns the
// time the checked runs took.
func simSetup(points []simPoint, out *outcome) time.Duration {
	var took time.Duration
	for _, pt := range points {
		out.cal.run(simSlicesPerPoint)
		ps := pt.spec
		ps.Verify = true
		t0 := time.Now()
		_, err := harness.RunPoint(ps)
		took += time.Since(t0)
		switch {
		case err == nil && knownVerifyDefects[pt.name]:
			out.fail("verify %s: passes, but is listed as a known defect; remove the entry", pt.name)
		case err == nil:
		case knownVerifyDefects[pt.name]:
			out.note("verify %s: FAILS (known simulator defect, not counted): %v", pt.name, err)
		default:
			out.fail("verify %s: %v", pt.name, err)
		}
	}
	return took
}

// simWorkload runs sim-p64: passes over the six points until the window
// is used up, checking every pass's digest.
func simWorkload(cfg config, out *outcome) error {
	points := simPoints(cfg.seed)
	out.setup = []float64{simSetup(points, out).Seconds()}
	out.note("sim-p64: %d points, P=64, SimN=8192, h in %v, shards %d (GOMAXPROCS %d)",
		len(points), simThreads, resolvedShards(64, 8192), runtime.GOMAXPROCS(0))

	untraced := cfg.seconds
	if cfg.trace {
		untraced /= 2
	}
	debug.FreeOSMemory()
	mon := startMonitor(untraced, nil)
	passes, err := simPasses(points, untraced, nil, out)
	out.peakRSS = mon.finish().peakRSSMB()
	if err != nil {
		return err
	}
	rate := func(ps []simPass) float64 {
		var r []float64
		for _, p := range ps {
			r = append(r, float64(p.counts.events)/p.wall.Seconds())
		}
		return median(r)
	}
	var lat []float64
	for _, p := range passes {
		out.ops += len(points)
		out.window += p.wall
		if !p.ok {
			out.failed += len(points)
			continue
		}
		for _, d := range p.pointNS {
			lat = append(lat, ms(d))
			if d <= simPointLimit {
				out.within++
			}
		}
	}
	out.latency = [][]float64{lat}
	out.limit = simPointLimit
	out.computeBound = true
	out.simRate = rate(passes)
	out.note("sim-p64: %d passes, %d events each, digest %s", len(passes), passes[0].counts.events, passes[0].digest)
	if !cfg.trace {
		return nil
	}

	tr := &tracer{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	traced, err := simPasses(points, cfg.seconds-untraced, tr, out)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	l := out.layer
	for i, pt := range points {
		var d []float64
		for _, p := range traced {
			d = append(d, p.pointNS[i].Seconds())
		}
		l["harness.point_s."+pt.name] = median(d)
	}
	var events float64
	for _, h := range simThreads {
		var ns, ev float64
		for _, p := range traced {
			ns += p.perH[h][0]
			ev += p.perH[h][1]
		}
		l[fmt.Sprintf("harness.ns_per_event.h%d", h)] = ns / ev
		events += ev
	}
	c := traced[0].counts
	l["sim.events"] = float64(c.events)
	l["core.switches.remote-read"] = float64(c.remoteRead)
	l["core.switches.iter-sync"] = float64(c.iterSync)
	l["core.switches.thread-sync"] = float64(c.threadSync)
	l["core.dispatches"] = float64(c.dispatches)
	l["thread.spills"] = float64(c.spills)
	l["proc.dma_serviced"] = float64(c.dmaServiced)
	l["network.packets"] = float64(c.packets)
	l["network.hops"] = float64(c.hops)
	l["network.queue_delay_cycles"] = float64(c.queueDelay)
	l["runtime.alloc_bytes_per_event"] = float64(after.TotalAlloc-before.TotalAlloc) / events
	l["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	out.overheadPct = 100 * (out.simRate - rate(traced)) / out.simRate
	out.spans = tr
	return nil
}

// simPointLimit is sim-p64's latency limit per point: every point runs
// well inside it on a healthy host, so a miss means a stall.
const simPointLimit = 10 * time.Second

// simPasses runs whole passes until window has elapsed (at least one),
// checking that every pass repeats the first one's digest and, at the
// default seed, the pinned digest.
func simPasses(points []simPoint, window time.Duration, tr *tracer, out *outcome) ([]simPass, error) {
	var passes []simPass
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < window {
		id := tr.id()
		t0 := time.Now()
		p, err := runSimPass(points, &out.cal, tr, id)
		tr.record(span{ID: id, Name: "sim.pass", Start: t0, End: time.Now()})
		if err != nil {
			return nil, err
		}
		p.ok = true
		switch {
		case len(passes) > 0 && p.digest != passes[0].digest:
			out.fail("sim-p64 pass %d digest %s differs from pass 0 %s", len(passes), p.digest, passes[0].digest)
			p.ok = false
		case out.seed == defaultSeed && p.digest != simP64Digest:
			out.fail("sim-p64 digest %s differs from the pinned %s", p.digest, simP64Digest)
			p.ok = false
		}
		passes = append(passes, p)
	}
	return passes, nil
}

// resolvedShards reports the engine-shard count the harness's automatic
// selection (PointSpec.Shards == 0) picks for a point. It restates
// harness.autoShards, which is not exported: four shards for P >= 64
// power-of-two machines with SimN*P >= 2^20 when GOMAXPROCS >= 4,
// otherwise one.
func resolvedShards(p, simN int) int {
	if runtime.GOMAXPROCS(0) < 4 || p < 64 || p&(p-1) != 0 || simN*p < 1<<20 {
		return 1
	}
	return 4
}
