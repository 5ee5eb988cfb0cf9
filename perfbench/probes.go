package main

import (
	"fmt"
	"math/rand"
	"time"

	"emx/internal/core"
	"emx/internal/metrics"
	"emx/internal/network"
	"emx/internal/packet"
	"emx/internal/sim"
)

// probeReps is how many times each probe runs; the median is reported.
const probeReps = 5

// Probe sizes. They are printed beside the probe results.
const (
	engineBatches  = 256  // engine probe: batches of no-op events ...
	engineBatch    = 4096 // ... each scheduled at delays 0..15, then Run
	switchYields   = 100_000
	networkPEs     = 64
	networkPackets = 100_000 // random src/dst writes, one injected per cycle
)

type noop struct{}

func (noop) OnEvent(sim.EventArg) {}

// probeEngine returns nanoseconds per event of scheduling no-op
// handler events on a fresh engine and dispatching them with Run.
func probeEngine() float64 {
	e := sim.NewEngine()
	var h sim.Handler = noop{}
	start := time.Now()
	for b := 0; b < engineBatches; b++ {
		for i := 0; i < engineBatch; i++ {
			e.AfterHandler(sim.Time(i&15), h, sim.EventArg{})
		}
		e.Run()
	}
	return float64(time.Since(start)) / float64(e.Events())
}

// probeSwitch returns nanoseconds per round trip of two threads on one
// PE handing the EXU to each other through TC.Yield: one round trip is
// two context switches.
func probeSwitch() (float64, error) {
	cfg := core.DefaultConfig(1)
	cfg.MaxCycles = 1 << 40
	m, err := core.NewMachine(cfg)
	if err != nil {
		return 0, err
	}
	for t := 0; t < 2; t++ {
		m.SpawnAt(0, fmt.Sprintf("ping%d", t), 0, func(tc *core.TC) {
			for i := 0; i < switchYields; i++ {
				tc.Yield(metrics.SwitchExplicit)
			}
		})
	}
	start := time.Now()
	if _, err := m.Run(); err != nil {
		return 0, err
	}
	return float64(time.Since(start)) / switchYields, nil
}

type sendH struct{ n *network.Network }

func (h sendH) OnEvent(arg sim.EventArg) { h.n.Send(arg.Ptr.(*packet.Packet)) }

// probeNetwork returns nanoseconds per link hop of random write traffic
// on a 64-PE network, packets allocated before timing starts.
func probeNetwork(seed int64) (float64, error) {
	e := sim.NewEngine()
	n, err := network.New(e, networkPEs)
	if err != nil {
		return 0, err
	}
	for pe := 0; pe < networkPEs; pe++ {
		n.SetDeliver(packet.PE(pe), func(*packet.Packet) {})
	}
	rng := rand.New(rand.NewSource(seed))
	h := sendH{n}
	for i := 0; i < networkPackets; i++ {
		p := &packet.Packet{
			Kind: packet.KindWrite,
			Src:  packet.PE(rng.Intn(networkPEs)),
			Addr: packet.GlobalAddr{PE: packet.PE(rng.Intn(networkPEs))},
		}
		e.AtHandler(sim.Time(i), h, sim.EventArg{Ptr: p})
	}
	start := time.Now()
	e.Run()
	hops := n.Total().Hops
	if hops == 0 {
		return 0, fmt.Errorf("network probe: no hops")
	}
	return float64(time.Since(start)) / float64(hops), nil
}

// runProbes runs the three layer probes, recording a span for each run,
// and stores their medians in the outcome's per-layer metrics.
func runProbes(cfg config, tr *tracer, out *outcome) error {
	timed := func(name string, f func() (float64, error)) (float64, error) {
		var vals []float64
		for r := 0; r < probeReps; r++ {
			id := tr.id()
			t0 := time.Now()
			v, err := f()
			tr.record(span{ID: id, Name: name, Start: t0, End: time.Now()})
			if err != nil {
				return 0, err
			}
			vals = append(vals, v)
		}
		return median(vals), nil
	}
	var err error
	l := out.layer
	if l["sim.engine_ns_per_event"], err = timed("probe.engine", func() (float64, error) { return probeEngine(), nil }); err != nil {
		return err
	}
	if l["core.switch_roundtrip_ns"], err = timed("probe.core_switch", probeSwitch); err != nil {
		return err
	}
	if l["network.ns_per_hop"], err = timed("probe.network", func() (float64, error) { return probeNetwork(cfg.seed) }); err != nil {
		return err
	}
	out.note("probes (median of %d): engine %d×%d no-op events; core 2 threads × %d yields on 1 PE; network %d PEs, %d random writes",
		probeReps, engineBatches, engineBatch, switchYields, networkPEs, networkPackets)
	return nil
}
