package main

import (
	"math"
	"testing"
	"time"
)

func TestFactorIsMedianSliceOverReference(t *testing.T) {
	var c calibrator
	if f := c.factor(); f != 1 {
		t.Errorf("factor with no slices = %g, want 1", f)
	}
	c.slices = []float64{3 * refSliceNS, refSliceNS, 2 * refSliceNS}
	if f := c.factor(); f != 2 {
		t.Errorf("factor = %g, want 2", f)
	}
}

// A host twice as slow as the reference reports the same figures as the
// reference: times are halved, compute-bound rates doubled, and what
// does not follow the host's speed is left alone.
func TestEndToEndValuesScaleToReference(t *testing.T) {
	o := &outcome{
		ops: 4, within: 3, simRate: 1e6, peakRSS: 30,
		latency: [][]float64{{10, 20, 30}},
		setup:   []float64{4},
		window:  2e9, // 2 s
	}
	o.cal.slices = []float64{2 * refSliceNS}
	for _, computeBound := range []bool{false, true} {
		o.computeBound = computeBound
		got := o.endToEndValues()
		rps := 1.5
		if computeBound {
			rps = 3
		}
		want := map[string]float64{
			"sim_events_per_s": 2e6, "latency_p50_ms": 10, "setup_s": 2,
			"achieved_rps": rps, "slo_attainment": 0.75, "peak_rss_mb": 30,
		}
		for k, w := range want {
			if math.Abs(got[k]-w) > 1e-9 {
				t.Errorf("computeBound=%v %s = %g, want %g", computeBound, k, got[k], w)
			}
		}
	}
}

// A serve workload's latency is scaled by its control traffic, not by
// the calibration kernel.
func TestLatencyScalesByControlWhenPresent(t *testing.T) {
	o := &outcome{ops: 1, latency: [][]float64{{9}}, setup: []float64{1}, window: 1e9}
	o.cal.slices = []float64{2 * refSliceNS}
	o.controlP50 = 3 * refControlMS
	got := o.endToEndValues()
	if got["latency_p50_ms"] != 3 {
		t.Errorf("latency_p50_ms = %g, want 3 (9 ms on a host three times slower)", got["latency_p50_ms"])
	}
	if got["setup_s"] != 0.5 {
		t.Errorf("setup_s = %g, want 0.5 (the calibration kernel's factor)", got["setup_s"])
	}
}

func TestControlTraffic(t *testing.T) {
	c, err := startControl()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	r := c.startControlRun(1, 400*time.Millisecond)
	p50, err := r.p50()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.samples) != 10 || p50 <= 0 {
		t.Errorf("%d control samples, p50 %g ms; want 10 samples and a positive p50", len(r.samples), p50)
	}
}

// The kernel recycles its events: what it allocates is its goroutines
// and channels, not one object per event.
func TestSpeedKernelDoesNotAllocatePerEvent(t *testing.T) {
	table := make([]uint64, calWords)
	small := testing.AllocsPerRun(2, func() { speedKernel(1_000, table) })
	large := testing.AllocsPerRun(2, func() { speedKernel(20_000, table) })
	if large > small+50 {
		t.Errorf("allocations grew from %.0f at 1,000 events to %.0f at 20,000", small, large)
	}
}
