package harness

import (
	"fmt"
	"sync"

	"emx/internal/analytic"
	"emx/internal/core"
	"emx/internal/metrics"
	"emx/internal/proc"
)

// panelOrder is every figure panel of the evaluation, in the order
// `-fig all` emits them: Figures 6-9 (a-d), the ablations, and the
// in-text measurements.
var panelOrder = []string{
	"6a", "6b", "6c", "6d", "7a", "7b", "7c", "7d",
	"8a", "8b", "8c", "8d", "9a", "9b", "9c", "9d",
	"em4", "block", "sched", "irr", "model", "latency", "load",
}

// PanelNames lists the valid panel names in emission order.
func PanelNames() []string {
	out := make([]string, len(panelOrder))
	copy(out, panelOrder)
	return out
}

// ValidPanel reports whether name is a known panel.
func ValidPanel(name string) bool {
	for _, p := range panelOrder {
		if p == name {
			return true
		}
	}
	return false
}

// panelGrid maps the paper's panel letters onto (workload, P): a/b are
// sorting at P=16/64, c/d FFT at P=16/64.
var panelGrid = map[byte]struct {
	w Workload
	p int
}{
	'a': {Bitonic, 16},
	'b': {Bitonic, 64},
	'c': {FFT, 16},
	'd': {FFT, 64},
}

// PanelOptions parameterizes a panel build.
type PanelOptions struct {
	// Scale divides the paper's problem sizes (<=0: DefaultScale).
	Scale int
	// Seed is the input generator seed (the paper sweep's default is 1).
	Seed int64
	// Logf, when set, receives progress lines (sweep announcements).
	Logf func(format string, args ...any)
	// Observe, when non-nil, collects a cycle-accounting profile from
	// every point the panel's sweeps execute (see Sweep.Observe).
	Observe *ProfileCollector
}

// PanelRunner builds the paper's figure panels through an Executor,
// memoizing sweeps so panels that share one (6b and 7b, say) measure it
// once. It is the single figure-construction path behind both
// cmd/emxbench and emxd's /v1/figure.
type PanelRunner struct {
	opts PanelOptions
	exec Executor

	mu     sync.Mutex
	sweeps map[string]*SweepResult
}

// NewPanelRunner returns a runner executing through exec.
func NewPanelRunner(opts PanelOptions, exec Executor) *PanelRunner {
	if opts.Scale <= 0 {
		opts.Scale = DefaultScale
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return &PanelRunner{opts: opts, exec: exec, sweeps: map[string]*SweepResult{}}
}

func (pr *PanelRunner) logf(format string, args ...any) {
	if pr.opts.Logf != nil {
		pr.opts.Logf(format, args...)
	}
}

// sweep memoizes full-grid sweeps per (workload, P, knobs). The labd
// scheduler underneath additionally caches and coalesces individual
// points, so concurrent duplicate panel requests stay cheap.
func (pr *PanelRunner) sweep(w Workload, p int, mode proc.ServiceMode, block, replyHigh bool) (*SweepResult, error) {
	key := fmt.Sprintf("%s-%d-%d-%v-%v", w, p, mode, block, replyHigh)
	pr.mu.Lock()
	if res, ok := pr.sweeps[key]; ok {
		pr.mu.Unlock()
		return res, nil
	}
	pr.mu.Unlock()
	pr.logf("sweeping %s P=%d (mode=%s block=%v replyhigh=%v, scale %d)...",
		w, p, mode, block, replyHigh, pr.opts.Scale)
	res, err := Sweep{
		Workload: w, P: p, Scale: pr.opts.Scale, Mode: mode,
		BlockRead: block, ReplyHigh: replyHigh, Seed: pr.opts.Seed,
		Observe: pr.opts.Observe,
	}.RunOn(pr.exec)
	if err != nil {
		return nil, err
	}
	pr.mu.Lock()
	pr.sweeps[key] = res
	pr.mu.Unlock()
	return res, nil
}

// Panel builds one named panel. Most names yield one figure; the em4
// and sched ablations yield one per workload.
func (pr *PanelRunner) Panel(name string) ([]Figure, error) {
	switch {
	case len(name) == 2 && (name[0] == '6' || name[0] == '7'):
		ps, ok := panelGrid[name[1]]
		if !ok {
			return nil, fmt.Errorf("unknown panel %q", name)
		}
		res, err := pr.sweep(ps.w, ps.p, proc.ServiceBypass, false, false)
		if err != nil {
			return nil, err
		}
		if name[0] == '6' {
			f := Fig6(res)
			f.SimCycles = res.TotalCycles()
			return []Figure{f}, nil
		}
		f, err := Fig7(res)
		if err != nil {
			return nil, err
		}
		f.SimCycles = res.TotalCycles()
		return []Figure{f}, nil

	case len(name) == 2 && (name[0] == '8' || name[0] == '9'):
		// Figure 8/9 panels are all P=64: a/b sorting at 512K/8M, c/d FFT
		// at 512K/8M.
		var w Workload
		var size int
		switch name[1] {
		case 'a':
			w, size = Bitonic, 512*K
		case 'b':
			w, size = Bitonic, 8*M
		case 'c':
			w, size = FFT, 512*K
		case 'd':
			w, size = FFT, 8*M
		default:
			return nil, fmt.Errorf("unknown panel %q", name)
		}
		res, err := pr.sweep(w, 64, proc.ServiceBypass, false, false)
		if err != nil {
			return nil, err
		}
		var f Figure
		if name[0] == '8' {
			f, err = Fig8(res, size)
		} else {
			f, err = Fig9(res, size)
		}
		if err != nil {
			return nil, err
		}
		f.SimCycles = res.TotalCycles()
		return []Figure{f}, nil

	case name == "em4":
		// Ablation X-em4: EM-X by-passing DMA vs EM-4 EXU servicing.
		var figs []Figure
		for _, w := range []Workload{Bitonic, FFT} {
			bypass, err := pr.sweep(w, 16, proc.ServiceBypass, false, false)
			if err != nil {
				return nil, err
			}
			exu, err := pr.sweep(w, 16, proc.ServiceEXU, false, false)
			if err != nil {
				return nil, err
			}
			size := 512 * K
			f, err := CompareSweeps(
				"xem4-"+w.String(),
				fmt.Sprintf("Servicing ablation: %s, P=16, n=%s", w, SizeLabel(size)),
				"makespan (s, simulated)", size, MakespanSeconds,
				LabelledSweep{Label: "EM-X by-passing DMA", Result: bypass},
				LabelledSweep{Label: "EM-4 EXU servicing", Result: exu})
			if err != nil {
				return nil, err
			}
			f.SimCycles = bypass.TotalCycles() + exu.TotalCycles()
			figs = append(figs, f)
		}
		return figs, nil

	case name == "block":
		// Ablation X-block: element reads vs block-read sends (bitonic).
		elem, err := pr.sweep(Bitonic, 16, proc.ServiceBypass, false, false)
		if err != nil {
			return nil, err
		}
		blk, err := pr.sweep(Bitonic, 16, proc.ServiceBypass, true, false)
		if err != nil {
			return nil, err
		}
		size := 512 * K
		f, err := CompareSweeps(
			"xblock",
			fmt.Sprintf("Block-read ablation: bitonic, P=16, n=%s", SizeLabel(size)),
			"comm time (s, simulated)", size, CommSeconds,
			LabelledSweep{Label: "element reads (paper)", Result: elem},
			LabelledSweep{Label: "block-read sends", Result: blk})
		if err != nil {
			return nil, err
		}
		f.SimCycles = elem.TotalCycles() + blk.TotalCycles()
		return []Figure{f}, nil

	case name == "sched":
		// Ablation X-sched: FIFO vs resume-first reply scheduling — the
		// fine-tuning direction the paper's conclusion proposes.
		var figs []Figure
		for _, w := range []Workload{Bitonic, FFT} {
			fifo, err := pr.sweep(w, 16, proc.ServiceBypass, false, false)
			if err != nil {
				return nil, err
			}
			hi, err := pr.sweep(w, 16, proc.ServiceBypass, false, true)
			if err != nil {
				return nil, err
			}
			size := 512 * K
			f, err := CompareSweeps(
				"xsched-"+w.String(),
				fmt.Sprintf("Reply scheduling ablation: %s, P=16, n=%s", w, SizeLabel(size)),
				"comm time (s, simulated)", size, CommSeconds,
				LabelledSweep{Label: "FIFO replies (EM-X)", Result: fifo},
				LabelledSweep{Label: "resume-first replies", Result: hi})
			if err != nil {
				return nil, err
			}
			f.SimCycles = fifo.TotalCycles() + hi.TotalCycles()
			figs = append(figs, f)
		}
		return figs, nil

	case name == "irr":
		// Extension X-irr: the conclusion's proposed irregular workload —
		// where does SpMV's overlap land between sorting and FFT?
		var labelled []LabelledSweep
		var cycles uint64
		for _, w := range []Workload{Bitonic, SpMV, FFT} {
			res, err := pr.sweep(w, 16, proc.ServiceBypass, false, false)
			if err != nil {
				return nil, err
			}
			cycles += res.TotalCycles()
			labelled = append(labelled, LabelledSweep{Label: w.String(), Result: res})
		}
		size := 512 * K
		f, err := CompareSweeps(
			"xirr",
			fmt.Sprintf("Irregular workload: overlap efficiency, P=16, n=%s", SizeLabel(size)),
			"overlap efficiency (%)", size,
			func(*metrics.Run) float64 { return 0 }, labelled...)
		if err != nil {
			return nil, err
		}
		// Replace the metric with per-sweep efficiency (needs the h=1
		// baseline of each sweep, which CompareSweeps' single-run metric
		// cannot express).
		for i, ls := range labelled {
			si := ls.Result.SizeIndex(size)
			base := ls.Result.Runs[si][ls.Result.ThreadIndex(1)]
			for hi := range ls.Result.Threads {
				f.Series[i].Y[hi] = metrics.Efficiency(base, ls.Result.Runs[si][hi])
			}
		}
		f.SimCycles = cycles
		return []Figure{f}, nil

	case name == "model":
		f, err := pr.modelPanel()
		if err != nil {
			return nil, err
		}
		return []Figure{f}, nil

	case name == "latency":
		return []Figure{pr.latencyPanel()}, nil

	case name == "load":
		f, err := pr.loadPanel()
		if err != nil {
			return nil, err
		}
		return []Figure{f}, nil
	}
	return nil, fmt.Errorf("unknown panel %q", name)
}

// modelPanel compares the Saavedra-Barrera analytic model against the
// synthetic kernel on the simulator (experiment X-model).
func (pr *PanelRunner) modelPanel() (Figure, error) {
	cfg := core.DefaultConfig(16)
	cfg.MemWords = 1 << 14
	cfg.MaxCycles = 1 << 36
	const runLen = 40
	m := analytic.FitFromConfig(cfg, runLen)
	f := Figure{
		ID:     "xmodel",
		Title:  fmt.Sprintf("Analytic model vs simulation (R=%d, L=%.0f, C=%.0f)", runLen, m.L, m.C),
		XLabel: "threads",
		YLabel: "processor efficiency",
		X:      []int{1, 2, 3, 4, 6, 8, 12, 16},
	}
	model := Series{Label: "Saavedra-Barrera model"}
	meas := Series{Label: "simulated kernel"}
	region := Series{Label: "model region (0=lin 1=trans 2=sat)"}
	for _, h := range f.X {
		model.Y = append(model.Y, m.Efficiency(h))
		run, e, err := analytic.RunKernel(cfg, analytic.KernelParams{H: h, Reads: 80, R: runLen})
		if err != nil {
			return Figure{}, err
		}
		f.SimCycles += uint64(run.Makespan)
		meas.Y = append(meas.Y, e)
		region.Y = append(region.Y, float64(m.RegionOf(h)))
	}
	f.Series = []Series{model, meas, region}
	f.Note = fmt.Sprintf("saturation point N* = %.2f threads (the paper's 2-4 band)", m.SaturationPoint())
	return f, nil
}

// latencyPanel reports the in-text measurement T-lat: a typical remote
// read takes about 1 us (20 cycles), growing with machine size.
func (pr *PanelRunner) latencyPanel() Figure {
	f := Figure{
		ID:     "xlatency",
		Title:  "Remote read latency (unloaded, T-lat)",
		XLabel: "processors",
		YLabel: "latency (cycles)",
		XName:  "P",
		X:      []int{2, 4, 16, 64, 80, 128},
		Note:   "paper: ~1-2 us, i.e. 20-40 cycles at 20 MHz",
	}
	cycles := Series{Label: "round trip (cycles)"}
	micros := Series{Label: "round trip (us)"}
	for _, p := range f.X {
		cfg := core.DefaultConfig(p)
		cfg.MemWords = 1 << 12
		lat := analytic.MeasureLatency(cfg)
		cycles.Y = append(cycles.Y, float64(lat))
		micros.Y = append(micros.Y, lat.Micros())
	}
	f.Series = []Series{cycles, micros}
	return f
}

// loadPanel reports observed remote read latency under load: h threads
// per PE all reading, for the sorting run length — "1 to 2 usec when
// the network is normally loaded".
func (pr *PanelRunner) loadPanel() (Figure, error) {
	f := Figure{
		ID:     "xload",
		Title:  "Observed remote read latency under load (R=12)",
		XLabel: "threads",
		YLabel: "latency (cycles)",
		X:      []int{1, 2, 4, 8, 16},
	}
	for _, p := range []int{16, 64, 80} {
		cfg := core.DefaultConfig(p)
		cfg.MemWords = 1 << 12
		cfg.MaxCycles = 1 << 34
		ser := Series{Label: fmt.Sprintf("P=%d", p)}
		for _, h := range f.X {
			lat, err := analytic.MeasureLoadedLatency(cfg, h, 48, 12)
			if err != nil {
				return Figure{}, err
			}
			ser.Y = append(ser.Y, lat)
		}
		f.Series = append(f.Series, ser)
	}
	return f, nil
}
