package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"emx/internal/cluster"
	"emx/internal/harness"
	"emx/internal/labd"
	"emx/internal/labd/service"
	"emx/internal/metrics"
)

// expectation is the correct answer to one distinct request, computed
// by the benchmark directly through the harness, with no serving layer
// in between.
type expectation struct {
	endpoint string
	run      service.RunResponse // /v1/run, with Source left empty
	body     []byte              // /v1/figure: canonical JSON; /v1/profile: exact bytes
}

// check compares a response with the expectation and returns how the
// node obtained it (the run's source field or the profile's source
// header; "" for figures).
func (e *expectation) check(res *cluster.Result) (string, error) {
	if res.Status != http.StatusOK {
		return "", fmt.Errorf("HTTP %d: %s", res.Status, bytes.TrimSpace(res.Body))
	}
	switch e.endpoint {
	case "/v1/run":
		var got service.RunResponse
		if err := json.Unmarshal(res.Body, &got); err != nil {
			return "", wrongAnswer{fmt.Errorf("decoding run: %w", err)}
		}
		source := got.Source
		got.Source = ""
		if got != e.run {
			return "", wrongAnswer{fmt.Errorf("run differs from the reference:\n got  %+v\n want %+v", got, e.run)}
		}
		return source, nil
	case "/v1/figure":
		var got service.FigureResponse
		if err := json.Unmarshal(res.Body, &got); err != nil {
			return "", wrongAnswer{fmt.Errorf("decoding figure: %w", err)}
		}
		b, err := json.Marshal(got)
		if err != nil {
			return "", err
		}
		if !bytes.Equal(b, e.body) {
			return "", wrongAnswer{errors.New("figure differs from the reference")}
		}
		return "", nil
	default:
		if !bytes.Equal(res.Body, e.body) {
			return "", wrongAnswer{fmt.Errorf("profile differs from the reference (%d bytes, want %d)", len(res.Body), len(e.body))}
		}
		return res.Header.Get(service.SourceHeader), nil
	}
}

// direct runs every point inline: the reference executor, with no
// cache, coalescing or replication. It counts the simulated events.
type direct struct{ events *atomic.Uint64 }

func (d direct) Do(key string, fn func() (*metrics.Run, error)) (*metrics.Run, labd.Source, error) {
	run, err := fn()
	if err == nil {
		d.events.Add(run.SimEvents)
	}
	return run, labd.Executed, err
}

// expect computes the correct answer to one request body, adding the
// events it simulated to events.
func expect(endpoint string, body []byte, events *atomic.Uint64) (*expectation, error) {
	e := &expectation{endpoint: endpoint}
	exec := direct{events}
	switch endpoint {
	case "/v1/run":
		var req service.RunRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		ps, scale, err := service.ResolveRun(req, serveScale, req.Seed)
		if err != nil {
			return nil, err
		}
		run, _, err := exec.Do("", func() (*metrics.Run, error) { return harness.RunPoint(ps) })
		if err != nil {
			return nil, err
		}
		e.run = runResponse(ps, scale, run)
	case "/v1/figure":
		var req service.FigureRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		pr := harness.NewPanelRunner(harness.PanelOptions{Scale: req.Scale, Seed: req.Seed}, exec)
		figs, err := pr.Panel(req.Fig)
		if err != nil {
			return nil, err
		}
		e.body, err = json.Marshal(service.FigureResponse{Fig: req.Fig, Scale: req.Scale, Seed: req.Seed, Figures: figs})
		if err != nil {
			return nil, err
		}
	case "/v1/profile":
		var req service.ProfileRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		ps, scale, err := service.ResolveRun(req.RunRequest, serveScale, req.Seed)
		if err != nil {
			return nil, err
		}
		pc := harness.NewProfileCollector(harness.ObsOptions{SliceCycles: req.SliceCycles})
		if _, _, err := exec.Do("", func() (*metrics.Run, error) { return pc.RunPointObserved(ps, scale) }); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := pc.Points()[0].Profile.WriteJSON(&buf); err != nil {
			return nil, err
		}
		e.body = buf.Bytes()
	default:
		return nil, fmt.Errorf("no reference for endpoint %s", endpoint)
	}
	return e, nil
}

// runResponse is the /v1/run answer for a run, derived from the run's
// measurements as the API documents them.
func runResponse(ps harness.PointSpec, scale int, run *metrics.Run) service.RunResponse {
	c, o, m, sw := run.TotalBreakdown().Fractions()
	return service.RunResponse{
		Key:             ps.Key(scale),
		Workload:        ps.Workload.String(),
		P:               run.P,
		H:               run.H,
		SimN:            run.N,
		PaperN:          run.PaperN,
		MakespanCycles:  uint64(run.Makespan),
		MakespanSeconds: float64(run.Makespan) * 50e-9,
		CommMeanCycles:  run.MeanCommTime(),
		ComputePct:      100 * c,
		OverheadPct:     100 * o,
		CommPct:         100 * m,
		SwitchPct:       100 * sw,
		Switches:        run.SumCounter((*metrics.PE).TotalSwitches),
	}
}

// refsPerSlice is how much reference work each calibration slice
// stands for. Slices run after each reference until their count catches
// up with the work done, so a long reference (a whole figure) is
// followed by several and the host's speed is sampled all through.
const refsPerSlice = 100 * time.Millisecond

// attachExpectations computes the reference answer of every distinct
// request in reqs, one after another, and points each request at it.
// It returns the distinct requests in first-seen order and how long the
// references took, without the calibration slices timed between them.
// The references are the workload's own simulations: their simulated
// events per wall second become out.simRate.
func attachExpectations(out *outcome, reqs ...[]request) ([]request, time.Duration, error) {
	index := map[string]int{}
	var distinct []request
	for _, phase := range reqs {
		for _, r := range phase {
			id := r.Endpoint + " " + string(r.Body)
			if _, ok := index[id]; !ok {
				index[id] = len(distinct)
				distinct = append(distinct, r)
			}
		}
	}
	var events atomic.Uint64
	exps := make([]*expectation, len(distinct))
	errs := make([]error, len(distinct))
	var took time.Duration
	slices := 0
	for i, r := range distinct {
		t0 := time.Now()
		exps[i], errs[i] = expect(r.Endpoint, r.Body, &events)
		took += time.Since(t0)
		for ; slices <= int(took/refsPerSlice); slices++ {
			out.cal.slice()
		}
	}
	out.simRate = float64(events.Load()) / took.Seconds()
	for i, err := range errs {
		if err != nil {
			return nil, took, fmt.Errorf("reference for %s %s: %w", distinct[i].Endpoint, distinct[i].Body, err)
		}
	}
	for i := range distinct {
		distinct[i].exp = exps[i]
	}
	for _, phase := range reqs {
		for i := range phase {
			phase[i].exp = exps[index[phase[i].Endpoint+" "+string(phase[i].Body)]]
		}
	}
	return distinct, took, nil
}
