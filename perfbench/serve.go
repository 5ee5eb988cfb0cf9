package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"emx/internal/cluster"
	"emx/internal/labd"
	"emx/internal/labd/service"
	"emx/internal/load"
)

// serveScale clamps every request to the minimum grid, so simulations
// stay small and the serving layers carry a visible share of the cost.
const serveScale = 1 << 20

// deadlineSlack is how far past its due time a request's deadline lies.
// It is far above every latency limit, so no request is shed in a
// healthy run; the limits are applied to the measured latency instead.
const deadlineSlack = 30 * time.Second

// setupReps is how many times a serve workload builds and warms its lab;
// setup_s reports the median, and the last lab is the one measured.
const setupReps = 5

// serveSpec is one serving workload: its traffic and its latency limit.
type serveSpec struct {
	name string
	// requests synthesises the n requests of one timed phase from seed.
	requests func(seed int64, n int) ([]load.Request, error)
	rate     float64       // offered requests per second
	limit    time.Duration // latency limit behind slo_attainment
	warm     bool          // serve every request once during set-up
}

// hotSpec is serve-hot: a small run+figure+profile space that set-up
// has already served once, so almost every answer is a cache read. The
// rate is a twentieth of the cached capacity of a 2-vCPU host (a closed
// loop with two callers reached about 5,900 requests/s there). Nearer
// the capacity, queueing turned the host's speed swings (the hypervisor
// took up to 30% of the CPU) into swings of the median latency larger
// than the latency itself.
var hotSpec = serveSpec{
	name: "serve-hot",
	requests: func(seed int64, n int) ([]load.Request, error) {
		space := load.Space{
			Scale: serveScale, Seed: defaultSeed,
			Ps: []int{4, 8, 16}, Hs: []int{1, 4},
			Workloads: []string{"bitonic", "fft"},
			Panels:    []string{"6a", "6c"},
			Variants:  2,
		}
		gen, err := load.NewGenerator(seed, space, load.Mix{Run: 8, Figure: 1, Profile: 1})
		if err != nil {
			return nil, err
		}
		out := make([]load.Request, n)
		for i := range out {
			out[i] = gen.Request(uint64(i))
		}
		return out, nil
	},
	rate:  250,
	limit: 10 * time.Millisecond,
	warm:  true,
}

// coldSpec is serve-cold: /v1/run and /v1/profile requests in which
// every request carries its own input seed, so every request is a cache
// miss that executes, its result is stored and pushed to the replica.
// At 25 requests/s the two workers are about 10% busy; at 50/s the
// median latency tripled whenever the hypervisor took a fifth of the
// CPU.
// The points are the 45 small machines of the paper's grid (bitonic,
// FFT and SpMV; P 4, 8 and 16; h 1 to 16), each 0.3-40 ms of
// simulation, where machine set-up weighs more than in sim-p64's long
// runs. The P=32 and P=64 machines are left out: at up to 0.4 s a run
// they would make latency depend on which seed drew them. Requests walk
// a seeded permutation of the grid, so every window of 45 requests has
// the same work. Nine fixed points, one h per (workload, P), are asked
// for as profiles, so the profile cache holds the same mix on every
// seed.
var coldSpec = serveSpec{
	name: "serve-cold",
	requests: func(seed int64, n int) ([]load.Request, error) {
		var grid []service.RunRequest
		for _, w := range []string{"bitonic", "fft", "spmv"} {
			n := 1 << 19 // sizes as load.Generator picks them
			if w == "spmv" {
				n = 64 << 20
			}
			for _, p := range []int{4, 8, 16} {
				for _, h := range []int{1, 2, 4, 8, 16} {
					grid = append(grid, service.RunRequest{Workload: w, P: p, H: h, N: n, Scale: serveScale})
				}
			}
		}
		rng := rand.New(rand.NewSource(^seed)) // not the arrival schedule's stream
		var order []int
		out := make([]load.Request, n)
		for i := range out {
			if i%len(grid) == 0 {
				order = rng.Perm(len(grid))
			}
			g := order[i%len(grid)]
			req := grid[g]
			req.Seed = seed<<32 + int64(i) + 1
			ps, scale, err := service.ResolveRun(req, serveScale, req.Seed)
			if err != nil {
				return nil, err
			}
			var body []byte
			endpoint := "/v1/run"
			if g%5 == g/5%5 {
				endpoint = "/v1/profile"
				body, err = json.Marshal(service.ProfileRequest{RunRequest: req})
			} else {
				body, err = json.Marshal(req)
			}
			if err != nil {
				return nil, err
			}
			out[i] = load.Request{Endpoint: endpoint, Key: ps.Key(scale), Body: body}
		}
		return out, nil
	},
	rate:  25,
	limit: 100 * time.Millisecond,
}

// request is one generated request with its due offset.
type request struct {
	load.Request
	due time.Duration
	exp *expectation
}

// phase generates the requests of one timed phase: a seeded Poisson
// schedule over window, and request i for arrival i.
func (sp serveSpec) phase(seed int64, window time.Duration) ([]request, error) {
	dues := poissonSchedule(seed, sp.rate, window)
	reqs, err := sp.requests(seed, len(dues))
	if err != nil {
		return nil, err
	}
	out := make([]request, len(dues))
	for i, d := range dues {
		out[i] = request{Request: reqs[i], due: d}
	}
	return out, nil
}

// lab is two in-process emxd nodes (one labd worker each, cache
// replication R=2) behind loopback listeners, and the cluster client
// that routes to them.
type lab struct {
	nodes     []*service.Server
	servers   []*http.Server
	done      []chan struct{}
	transport *http.Transport
	client    *cluster.Client
	// tr is the tracer of the traced phase; nil (no spans) until then.
	tr atomic.Pointer[tracer]
	// reqs maps a request's deadline header, unique per request, to its
	// trace ids: cluster.Client gives the transport no other handle on
	// which request an attempt belongs to.
	reqs sync.Map
}

// spanHeader carries "<request id>/<parent span id>" from the
// benchmark's transport to its handler wrapper.
const spanHeader = "X-Perfbench-Span"

type reqIDs struct{ req, parent int64 }

// startLab builds the lab. traced installs the span transport and
// handler wrapper; spans are recorded only once lab.tr is set.
func startLab(seed int64, traced bool) (*lab, error) {
	l := &lab{}
	var lns []net.Listener
	var urls []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, prev := range lns {
				prev.Close()
			}
			return nil, fmt.Errorf("listening for node %d: %w", i, err)
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		srv := service.New(service.Options{
			Scale: serveScale,
			Seed:  seed,
			Sched: labd.Options{Workers: 1},
			Replication: service.ReplicationOptions{
				Replicas: 2, Self: urls[i], Peers: urls,
			},
		})
		var h http.Handler = srv.Handler()
		if traced {
			h = l.handlerSpans(h)
		}
		hs := &http.Server{Handler: h}
		done := make(chan struct{})
		go func(ln net.Listener) {
			defer close(done)
			hs.Serve(ln) // returns http.ErrServerClosed on close
		}(ln)
		l.nodes = append(l.nodes, srv)
		l.servers = append(l.servers, hs)
		l.done = append(l.done, done)
	}
	l.transport = &http.Transport{MaxIdleConnsPerHost: 16}
	var rt http.RoundTripper = l.transport
	if traced {
		rt = spanTransport{l: l}
	}
	members := cluster.NewMembership(urls, cluster.MembershipOptions{})
	l.client = cluster.NewClient(members, cluster.ClientOptions{
		Replicas:   2,
		HTTPClient: &http.Client{Transport: rt},
	})
	return l, nil
}

// close stops both nodes and waits for their servers to exit.
func (l *lab) close() {
	for i, hs := range l.servers {
		hs.Close()
		<-l.done[i]
	}
	for _, n := range l.nodes {
		n.Close()
	}
	l.transport.CloseIdleConnections()
}

// flush waits for queued replica pushes, so set-up's pushes do not run
// into the timed phase.
func (l *lab) flush() {
	for _, n := range l.nodes {
		n.FlushReplication(5 * time.Second)
	}
}

// stats sums the scheduler counters of both nodes.
func (l *lab) stats() labd.Stats {
	var s labd.Stats
	for _, n := range l.nodes {
		st := n.Scheduler().Stats()
		s.Started += st.Started
		s.Completed += st.Completed
		s.CacheHits += st.CacheHits
		s.Coalesced += st.Coalesced
		s.Rejected += st.Rejected
		s.ShedDeadline += st.ShedDeadline
		s.ShedAbandoned += st.ShedAbandoned
		s.ShedCanceled += st.ShedCanceled
		s.QueueDepth += st.QueueDepth
		s.Workers += st.Workers
		s.HostSeconds += st.HostSeconds
	}
	return s
}

// replicaCounters sums the emxd_cache_replica_* counters of both nodes.
func (l *lab) replicaCounters() map[string]float64 {
	out := map[string]float64{}
	for _, n := range l.nodes {
		for k, v := range n.Registry().Snapshot() {
			if strings.HasPrefix(k, "emxd_cache_replica_") {
				out[k] += v
			}
		}
	}
	return out
}

// spanTransport stamps each attempt with its request's trace ids.
type spanTransport struct{ l *lab }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if v, ok := t.l.reqs.Load(r.Header.Get(service.DeadlineHeader)); ok {
		ids := v.(reqIDs)
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, fmt.Sprintf("%d/%d", ids.req, ids.parent))
	}
	return t.l.transport.RoundTrip(r)
}

// handlerSpans records a span around every traced request the node
// serves, as a child of the client call that sent it.
func (l *lab) handlerSpans(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		tr := l.tr.Load()
		id := tr.id()
		start := time.Now()
		next.ServeHTTP(w, r)
		tr.record(span{ID: id, Parent: parent, Req: req, Name: "service.handler",
			Attr: r.URL.Path, Start: start, End: time.Now()})
	})
}

func parseSpanHeader(v string) (req, parent int64, ok bool) {
	a, b, found := strings.Cut(v, "/")
	if !found {
		return 0, 0, false
	}
	req, err1 := strconv.ParseInt(a, 10, 64)
	parent, err2 := strconv.ParseInt(b, 10, 64)
	return req, parent, err1 == nil && err2 == nil
}

// served is what one timed phase observed.
type served struct {
	samples []sample
	sources map[string]int       // how each answer was obtained
	bytes   map[string][]float64 // response sizes per endpoint
	wrong   int                  // answers that differed from the reference
	errors  []string             // the first few failures, for the log
}

// issue sends one request through the cluster client, records its spans
// when traced, and checks the answer against its expectation.
func (l *lab) issue(r request, reqID int64, due time.Time, sv *served, mu *sync.Mutex) (time.Time, bool) {
	deadline := due.Add(deadlineSlack)
	tr := l.tr.Load()
	var root, call int64
	if tr != nil {
		root, call = tr.id(), tr.id()
		l.reqs.Store(service.FormatDeadline(deadline), reqIDs{req: reqID, parent: call})
	}
	sent := time.Now()
	res, err := l.client.DoDeadline(r.Key, r.Endpoint, r.Body, deadline)
	done := time.Now()
	if tr != nil {
		l.reqs.Delete(service.FormatDeadline(deadline))
		tr.record(span{ID: root, Req: reqID, Name: "request", Attr: r.Endpoint, Start: due, End: done})
		tr.record(span{ID: tr.id(), Parent: root, Req: reqID, Name: "load.send_wait", Attr: r.Endpoint, Start: due, End: sent})
		tr.record(span{ID: call, Parent: root, Req: reqID, Name: "cluster.do", Attr: r.Endpoint, Start: sent, End: done})
	}
	var source string
	if err == nil {
		source, err = r.exp.check(res)
	}
	mu.Lock()
	defer mu.Unlock()
	if err != nil {
		if errors.As(err, new(wrongAnswer)) {
			sv.wrong++
		}
		if len(sv.errors) < 5 {
			sv.errors = append(sv.errors, fmt.Sprintf("%s %s: %v", r.Endpoint, r.Body, err))
		}
		return done, false
	}
	if source != "" {
		sv.sources[source]++
	}
	sv.bytes[r.Endpoint] = append(sv.bytes[r.Endpoint], float64(len(res.Body)))
	return done, true
}

// runPhase drives reqs open-loop against the lab, starting now.
func (l *lab) runPhase(reqs []request) *served {
	sv := &served{sources: map[string]int{}, bytes: map[string][]float64{}}
	var mu sync.Mutex
	dues := make([]time.Duration, len(reqs))
	for i, r := range reqs {
		dues[i] = r.due
	}
	sv.samples = openLoop(time.Now(), dues, runtime.NumCPU(), func(i int, due time.Time) (time.Time, bool) {
		return l.issue(reqs[i], int64(i+1), due, sv, &mu)
	})
	return sv
}

// warm sends every distinct request once, checking each answer, with
// as many senders as the open loop uses.
func (l *lab) warm(distinct []request, out *outcome) {
	var mu sync.Mutex
	sv := &served{sources: map[string]int{}, bytes: map[string][]float64{}}
	var wg sync.WaitGroup
	work := make(chan request)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				l.issue(r, 0, time.Now(), sv, &mu)
			}
		}()
	}
	for _, r := range distinct {
		work <- r
	}
	close(work)
	wg.Wait()
	for _, e := range sv.errors {
		out.fail("warm-up: %s", e)
	}
}

// wrongAnswer marks a response that arrived but did not match the
// reference: a correctness failure, not just a failed request.
type wrongAnswer struct{ error }

// endpointName shortens "/v1/run" to "run" for metric names.
func endpointName(path string) string { return strings.TrimPrefix(path, "/v1/") }

// serveEndpoints are the endpoints per-layer metrics are reported for.
var serveEndpoints = []string{"run", "figure", "profile"}

// tracedSeedOffset derives the seed of a traced run's traced half, so
// that serve-cold's traced half asks for points the untraced half did
// not already put in the cache.
const tracedSeedOffset = 1_000_003

// serveWorkload runs serve-hot or serve-cold. Set-up computes the
// reference answers, then builds (and for serve-hot warms) the lab
// setupReps times; the last lab serves the timed phase. A traced run
// splits the window: an untraced half, then a traced half whose
// requests come from another seed.
func serveWorkload(sp serveSpec, cfg config, out *outcome) error {
	window := cfg.seconds
	if cfg.trace {
		window /= 2
	}
	plain, err := sp.phase(cfg.seed, window)
	if err != nil {
		return err
	}
	var traced []request
	if cfg.trace {
		if traced, err = sp.phase(cfg.seed+tracedSeedOffset, cfg.seconds-window); err != nil {
			return err
		}
	}
	distinct, refTook, err := attachExpectations(out, plain, traced)
	if err != nil {
		return err
	}
	out.note("%s: %d requests (%d distinct, references %.2fs), rate %.0f/s, %d in flight, limit %v",
		sp.name, len(plain)+len(traced), len(distinct), refTook.Seconds(), sp.rate, runtime.NumCPU(), sp.limit)

	var l *lab
	for rep := 0; rep < setupReps; rep++ {
		if l != nil {
			l.close()
		}
		out.cal.slice()
		t0 := time.Now()
		if l, err = startLab(cfg.seed, cfg.trace); err != nil {
			return err
		}
		if sp.warm {
			l.warm(distinct, out)
			l.flush()
		}
		out.setup = append(out.setup, (refTook + time.Since(t0)).Seconds())
	}
	defer l.close()
	// Start the timed phase without set-up's garbage, so that the
	// resident set it measures is the lab's.
	debug.FreeOSMemory()

	ctl, err := startControl()
	if err != nil {
		return err
	}
	defer ctl.close()
	mon := startMonitor(window, l.stats)
	ctlRun := ctl.startControlRun(^cfg.seed, window)
	sv := l.runPhase(plain)
	seen := mon.finish()
	if out.controlP50, err = ctlRun.p50(); err != nil {
		return err
	}
	out.peakRSS = seen.peakRSSMB()
	out.limit = sp.limit
	out.addServed(sv, window)
	if !cfg.trace {
		return nil
	}

	tr := &tracer{}
	l.tr.Store(tr)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s0, c0, r0 := l.stats(), l.client.Stats(), l.replicaCounters()
	mon = startMonitor(cfg.seconds-window, l.stats)
	t0 := time.Now()
	tsv := l.runPhase(traced)
	wall := time.Since(t0)
	seen = mon.finish()
	s1, c1, r1 := l.stats(), l.client.Stats(), l.replicaCounters()
	runtime.ReadMemStats(&m1)
	l.tr.Store(nil)

	traceOut := newOutcome(cfg)
	traceOut.limit = sp.limit
	traceOut.addServed(tsv, cfg.seconds-window)
	for _, f := range traceOut.failures {
		out.fail("traced phase: %s", f)
	}
	n := float64(len(tsv.samples))
	lay := out.layer
	var lags []float64
	for _, s := range tsv.samples {
		lags = append(lags, ms(s.lag()))
	}
	lay["load.generator_lag_p99_ms"] = quantile(sortedCopy(lags), 0.99)

	spans := tr.snapshot()
	client, handler := map[string][]float64{}, map[string][]float64{}
	handled := map[int64]time.Duration{}
	calls := map[int64]span{}
	for _, s := range spans {
		switch s.Name {
		case "cluster.do":
			client[endpointName(s.Attr)] = append(client[endpointName(s.Attr)], ms(s.dur()))
			calls[s.Req] = s
		case "service.handler":
			handler[endpointName(s.Attr)] = append(handler[endpointName(s.Attr)], ms(s.dur()))
			handled[s.Req] += s.dur()
		}
	}
	var transport []float64
	for req, c := range calls {
		transport = append(transport, ms(c.dur()-handled[req]))
	}
	lay["http.transport_ms"] = median(transport)
	for _, ep := range serveEndpoints {
		if c := sortedCopy(client[ep]); len(c) > 0 {
			lay["cluster.client_ms.p50."+ep] = quantile(c, 0.5)
			lay["cluster.client_ms.p99."+ep] = quantile(c, 0.99)
		}
		if h := sortedCopy(handler[ep]); len(h) > 0 {
			lay["service.handler_ms.p50."+ep] = quantile(h, 0.5)
			lay["service.handler_ms.p99."+ep] = quantile(h, 0.99)
		}
		if b := tsv.bytes["/v1/"+ep]; len(b) > 0 {
			var sum float64
			for _, v := range b {
				sum += v
			}
			lay["service.response_bytes."+ep] = sum / float64(len(b))
		}
		out.note("traced %s: %d client spans, %d handler spans", ep, len(client[ep]), len(handler[ep]))
	}
	dc := c1.Sub(c0)
	lay["cluster.attempts_per_request"] = float64(dc.Attempts) / n
	lay["cluster.retries"] = float64(dc.Retries)
	lay["cluster.failovers"] = float64(dc.Failovers)

	lay["labd.source.cached"] = float64(tsv.sources["cached"] + tsv.sources["cache"])
	for _, src := range []string{"executed", "coalesced", "replicated"} {
		lay["labd.source."+src] = float64(tsv.sources[src])
	}
	ds := labd.Stats{
		CacheHits: s1.CacheHits - s0.CacheHits,
		Coalesced: s1.Coalesced - s0.Coalesced,
		Started:   s1.Started - s0.Started,
	}
	lay["labd.cache_hit_ratio"] = ds.CacheHitRatio()
	host := s1.HostSeconds - s0.HostSeconds
	if done := s1.Completed - s0.Completed; done > 0 {
		lay["labd.exec_s_per_run"] = host / float64(done)
	}
	lay["labd.busy_ratio"] = host / (wall.Seconds() * float64(s1.Workers))
	lay["labd.queue_depth_max"] = float64(seen.queueDepth)
	lay["labd.shed"] = float64((s1.Rejected + s1.ShedDeadline + s1.ShedAbandoned + s1.ShedCanceled) -
		(s0.Rejected + s0.ShedDeadline + s0.ShedAbandoned + s0.ShedCanceled))
	for _, name := range []string{"pushes", "stores", "fills", "fill_misses", "push_errors", "queue_drops"} {
		key := "emxd_cache_replica_" + name + "_total"
		lay["replication."+name] = r1[key] - r0[key]
	}
	lay["runtime.alloc_bytes_per_request"] = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	lay["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)

	untracedP50 := phaseQuantile(out.latency, 0.5)
	tracedP50 := phaseQuantile(traceOut.latency, 0.5)
	out.overheadPct = 100 * (tracedP50 - untracedP50) / untracedP50
	out.spans = tr
	return nil
}
