// Command perfbench is the repository's layered benchmark. It drives
// the simulator and the serving stack from outside, through their
// public entry points, on one of three workloads:
//
//	sim-p64     harness.RunPoint on {bitonic, FFT} × P=64 × SimN=8192 × h∈{1,4,16}
//	serve-hot   two emxd nodes, open-loop traffic over a warmed cache
//	serve-cold  two emxd nodes, open-loop traffic that mostly executes
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics (from spans, counters and probes)
// with --trace 1. Every answer is checked; a wrong one makes the command
// exit non-zero. See README.md for the metrics and why each workload
// exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload (BENCHMARK.json lists the same names).
var endToEnd = []metricDef{
	{"sim_events_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"slo_attainment", "ratio"},
	{"achieved_rps", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. Every workload reports all
// of them; a layer the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{n, unit})
		}
	}
	for _, w := range []string{"bitonic", "fft"} {
		for _, h := range simThreads {
			add("s", fmt.Sprintf("harness.point_s.%s-h%d", w, h))
		}
	}
	for _, h := range simThreads {
		add("ns", fmt.Sprintf("harness.ns_per_event.h%d", h))
	}
	add("count", "sim.events")
	add("ns", "sim.engine_ns_per_event")
	add("count", "core.switches.remote-read", "core.switches.iter-sync", "core.switches.thread-sync", "core.dispatches")
	add("ns", "core.switch_roundtrip_ns")
	add("count", "thread.spills", "proc.dma_serviced", "network.packets", "network.hops")
	add("cycles", "network.queue_delay_cycles")
	add("ns", "network.ns_per_hop")
	add("B", "runtime.alloc_bytes_per_event")
	add("count", "runtime.gc_cycles")
	add("B", "runtime.alloc_bytes_per_request")
	add("ms", "load.generator_lag_p99_ms")
	for _, q := range []string{"p50", "p99"} {
		for _, ep := range serveEndpoints {
			add("ms", fmt.Sprintf("cluster.client_ms.%s.%s", q, ep))
		}
	}
	add("ratio", "cluster.attempts_per_request")
	add("count", "cluster.retries", "cluster.failovers")
	for _, q := range []string{"p50", "p99"} {
		for _, ep := range serveEndpoints {
			add("ms", fmt.Sprintf("service.handler_ms.%s.%s", q, ep))
		}
	}
	for _, ep := range serveEndpoints {
		add("B", "service.response_bytes."+ep)
	}
	add("ms", "http.transport_ms")
	add("count", "labd.source.cached", "labd.source.executed", "labd.source.coalesced", "labd.source.replicated")
	add("ratio", "labd.cache_hit_ratio")
	add("s", "labd.exec_s_per_run")
	add("ratio", "labd.busy_ratio")
	add("count", "labd.queue_depth_max", "labd.shed")
	add("count", "replication.pushes", "replication.stores", "replication.fills",
		"replication.fill_misses", "replication.push_errors", "replication.queue_drops")
	add("ratio", "host.speed_factor", "host.control_factor")
	add("%", "trace.overhead_pct")
	for _, n := range selfSpans {
		add("ms", "trace.self_ms."+n)
	}
	return out
}()

// selfSpans are the span names whose mean self time is reported.
var selfSpans = []string{"load.send_wait", "cluster.do", "service.handler", "harness.run_point"}

// config is the command line.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	outDir   string // where a traced run writes its spans
}

var workloads = []string{"sim-p64", "serve-hot", "serve-cold"}

func parseConfig(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", defaultSeed, "seed of the generated inputs")
	seconds := fs.Int("seconds", 25, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	outDir := fs.String("out", ".bench_build", "directory for span dumps")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, outDir: *outDir}
	switch {
	case !slices.Contains(workloads, cfg.workload):
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	case *seconds < 1:
		return cfg, fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	case *trace != 0 && *trace != 1:
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	return cfg, nil
}

// outcome accumulates what one run measured and checked.
type outcome struct {
	seed     int64
	failures []string // correctness failures: any makes the run incorrect
	notes    []string // human-readable context printed before the result

	setup   []float64   // seconds per set-up repetition
	ops     int         // operations attempted in the measured phase
	failed  int         // of which failed, were shed or were wrong
	latency [][]float64 // ms of the operations that succeeded, per segment
	within  int         // succeeded within limit
	limit   time.Duration
	window  time.Duration // from the measured phase's start to its last completion
	simRate float64       // simulated events per wall second
	peakRSS float64       // MB, during the measured phase

	// cal times the host's speed through the run (see calib.go).
	cal calibrator
	// controlP50 is the median latency, in ms, of the control traffic
	// beside a serve workload's timed phase (see control.go); 0 for
	// sim-p64.
	controlP50 float64
	// computeBound marks a workload whose completions per second follow
	// the host's speed (sim-p64), not an arrival schedule.
	computeBound bool

	layer       map[string]float64 // per-layer metrics of a traced run
	overheadPct float64            // traced half against untraced half
	spans       *tracer
}

func newOutcome(cfg config) *outcome {
	return &outcome{seed: cfg.seed, layer: map[string]float64{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// addServed folds an open-loop phase scheduled over window into the
// outcome, each sample into the segment its due time falls in.
func (o *outcome) addServed(sv *served, window time.Duration) {
	o.latency = make([][]float64, segments)
	for _, s := range sv.samples {
		o.ops++
		if !s.OK {
			o.failed++
			continue
		}
		seg := min(int(s.Due*segments/window), segments-1)
		o.latency[seg] = append(o.latency[seg], ms(s.latency()))
		if s.latency() <= o.limit {
			o.within++
		}
		if s.Done > o.window {
			o.window = s.Done
		}
	}
	if sv.wrong > 0 {
		o.fail("%d answers differed from the reference", sv.wrong)
	}
	for _, e := range sv.errors {
		o.note("failed: %s", e)
	}
}

// phaseQuantile is the exact q-quantile of the samples of every
// segment together, or 0 when there are none. Over the whole phase it
// moved less between runs than the median of the segments' quantiles:
// a fifth of serve-cold holds only about three passes over its grid.
func phaseQuantile(segs [][]float64, q float64) float64 {
	var all []float64
	for _, s := range segs {
		all = append(all, s...)
	}
	if len(all) == 0 {
		return 0
	}
	return quantile(sortedCopy(all), q)
}

// okCount is the number of operations that succeeded.
func (o *outcome) okCount() int {
	n := 0
	for _, s := range o.latency {
		n += len(s)
	}
	return n
}

// rawValues computes the end-to-end metrics as measured on this host.
func (o *outcome) rawValues() map[string]float64 {
	return map[string]float64{
		"sim_events_per_s": o.simRate,
		"latency_p50_ms":   phaseQuantile(o.latency, 0.5),
		"slo_attainment":   float64(o.within) / float64(o.ops),
		"achieved_rps":     float64(o.okCount()) / o.window.Seconds(),
		"setup_s":          median(o.setup),
		"peak_rss_mb":      o.peakRSS,
	}
}

// latencyFactor is how much slower than the reference the host served
// the timed phase's requests: the control traffic's median latency over
// the reference's for a serve workload, the calibration factor for
// sim-p64.
func (o *outcome) latencyFactor() float64 {
	if o.controlP50 > 0 {
		return o.controlP50 / refControlMS
	}
	return o.cal.factor()
}

// endToEndValues scales the raw metrics that follow the host's speed to
// the reference speed (see calib.go): rates are multiplied by the
// factor and times divided by it. Ratios, memory and a serve workload's
// completions per second, which follow its arrival schedule, are left
// as measured.
func (o *outcome) endToEndValues() map[string]float64 {
	v, f := o.rawValues(), o.cal.factor()
	v["sim_events_per_s"] *= f
	v["latency_p50_ms"] /= o.latencyFactor()
	v["setup_s"] /= f
	if o.computeBound {
		v["achieved_rps"] *= f
	}
	return v
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func run(cfg config, stdout io.Writer) (bool, error) {
	out := newOutcome(cfg)
	var err error
	switch cfg.workload {
	case "sim-p64":
		err = simWorkload(cfg, out)
	case "serve-hot":
		err = serveWorkload(hotSpec, cfg, out)
	case "serve-cold":
		err = serveWorkload(coldSpec, cfg, out)
	}
	if err != nil {
		return false, err
	}

	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%.0f trace=%v\n", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	e2e, raw := out.endToEndValues(), out.rawValues()
	fmt.Fprintf(stdout, "host speed: %d calibration slices, median %.3f ms against %.3f ms on the reference host: factor %.4f\n",
		len(out.cal.slices), median(out.cal.slices)/1e6, refSliceNS/1e6, out.cal.factor())
	if out.controlP50 > 0 {
		fmt.Fprintf(stdout, "control: median latency %.4g ms against %.4g ms on the reference host: latency factor %.4f\n",
			out.controlP50, refControlMS, out.latencyFactor())
	}
	fmt.Fprintf(stdout, "operations: attempted %d, failed %d, limit %v\n", out.ops, out.failed, out.limit)
	for i, seg := range out.latency {
		if n := len(seg); n > 0 && len(out.latency) > 1 {
			s := sortedCopy(seg)
			fmt.Fprintf(stdout, "latency segment %d: %d samples, p50 %.4g p95 %.4g p99 %.4g max %.4g ms\n",
				i, n, quantile(s, 0.5), quantile(s, 0.95), quantile(s, 0.99), s[n-1])
		}
	}
	var all []float64
	for _, seg := range out.latency {
		all = append(all, seg...)
	}
	tail := map[string]float64{}
	if n := len(all); n > 0 {
		s := sortedCopy(all)
		tail["latency_p95_ms"], tail["latency_p99_ms"] = quantile(s, 0.95), quantile(s, 0.99)
		fmt.Fprintf(stdout, "latency: %d samples, p50 %.4g ms, %d beyond p95, %d beyond p99; the highest percentile with >=%d beyond is p%g\n",
			n, quantile(s, 0.5), beyond(n, 0.95), beyond(n, 0.99), minBeyond, 100*highestPercentile(n, 0.5, 0.9, 0.95, 0.99, 0.999))
	}

	res := result{Correct: len(out.failures) == 0, Attempted: out.ops, Failed: out.failed, Metrics: map[string]metricOut{}}
	defs := endToEnd
	vals := e2e
	if cfg.trace {
		if out.spans == nil {
			out.spans = &tracer{}
		}
		if err := runProbes(cfg, out.spans, out); err != nil {
			return false, err
		}
		out.layer["host.speed_factor"] = out.cal.factor()
		if out.controlP50 > 0 {
			out.layer["host.control_factor"] = out.latencyFactor()
		}
		out.layer["trace.overhead_pct"] = out.overheadPct
		self := selfByName(out.spans.snapshot())
		for _, n := range selfSpans {
			out.layer["trace.self_ms."+n] = self[n]
		}
		path := spanPath(cfg.outDir, cfg.workload, cfg.seed)
		if err := out.spans.write(path); err != nil {
			return false, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(out.spans.snapshot()), path)
		defs, vals = perLayer, out.layer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricOut{Value: vals[d.name], Unit: d.unit}
		if cfg.trace || raw[d.name] == vals[d.name] {
			fmt.Fprintf(stdout, "  %-40s %16.6g %s\n", d.name, vals[d.name], d.unit)
		} else {
			fmt.Fprintf(stdout, "  %-40s %16.6g %s (measured %.6g)\n", d.name, vals[d.name], d.unit, raw[d.name])
		}
	}
	if !cfg.trace {
		// Printed, not in the result: error_ratio is 0 on a healthy run
		// and the tail is gated through slo_attainment (see README.md).
		fmt.Fprintf(stdout, "  %-40s %16.6g %s\n", "error_ratio", float64(out.failed)/float64(max(out.ops, 1)), "ratio")
		for _, name := range []string{"latency_p95_ms", "latency_p99_ms"} {
			fmt.Fprintf(stdout, "  %-40s %16.6g %s\n", name, tail[name], "ms")
		}
	}
	for _, f := range out.failures {
		fmt.Fprintf(stdout, "INCORRECT: %s\n", f)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(stdout, string(b))
	return res.Correct, nil
}

// procs is the benchmark's GOMAXPROCS. With one P, goroutine hand-offs
// (the simulated threads' coroutines, the HTTP client's and server's
// goroutines) stay on one thread, so no measurement depends on waking a
// second vCPU. On the 2-vCPU sizing host sim-p64 ran about 11% faster
// with one P than with two. The automatic shard selection resolves to
// one shard either way below four Ps.
const procs = 1

func main() {
	cfg, err := parseConfig(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	correct, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}
