package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// controlRate is the rate of the control traffic that runs beside a
// serve workload's timed phase, in requests per second.
const controlRate = 25

// refControlMS is the control traffic's median latency on the reference
// host of calib.go, at its faster speed, beside serve-hot. Like
// refSliceNS it only sets the scale of the reported latencies.
const refControlMS = 0.225

// controlBody is the size of a control answer, about that of a cached
// /v1/run answer.
const controlBody = 1024

// control is a bare net/http server of the benchmark's own on a
// loopback listener, with its own client. Its requests take the same
// path through the host as the lab's (loopback TCP, the netpoller, the
// Go scheduler, the open-loop generator) but none through the repository's
// code, so no change to the program can move their latency, while the
// host's speed moves it as it moves the lab's. It runs beside the timed
// phase, so it sees the host as the lab's requests do: the calibration
// kernel, timed just before and after the phase, followed a serve
// workload's latency less closely, because on a shared host the speed changes within
// seconds and a request's latency also counts waiting and wake-ups.
type control struct {
	srv       *http.Server
	done      chan struct{}
	transport *http.Transport
	client    *http.Client
	url       string
}

func startControl() (*control, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening for the control server: %w", err)
	}
	body := []byte(strings.Repeat("x", controlBody))
	c := &control{done: make(chan struct{}), url: "http://" + ln.Addr().String() + "/"}
	c.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write(body)
	})}
	go func() {
		defer close(c.done)
		c.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	c.transport = &http.Transport{MaxIdleConnsPerHost: 2}
	c.client = &http.Client{Transport: c.transport}
	return c, nil
}

// get sends one control request and reads its answer.
func (c *control) get() error {
	res, err := c.client.Post(c.url, "application/json", strings.NewReader(`{"control":true}`))
	if err != nil {
		return err
	}
	defer res.Body.Close()
	n, err := io.Copy(io.Discard, res.Body)
	if err == nil && (res.StatusCode != http.StatusOK || n != controlBody) {
		err = fmt.Errorf("control answer: status %d, %d bytes", res.StatusCode, n)
	}
	return err
}

// close stops the server and waits for it to exit.
func (c *control) close() {
	c.srv.Close()
	<-c.done
	c.transport.CloseIdleConnections()
}

// controlRun is control traffic running beside a timed phase.
type controlRun struct {
	wg      sync.WaitGroup
	samples []sample
	err     error
}

// startControlRun starts seeded Poisson control traffic over window,
// from now, with one request in flight.
func (c *control) startControlRun(seed int64, window time.Duration) *controlRun {
	r := &controlRun{}
	dues := poissonSchedule(seed, controlRate, window)
	var mu sync.Mutex
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.samples = openLoop(time.Now(), dues, 1, func(i int, due time.Time) (time.Time, bool) {
			err := c.get()
			done := time.Now()
			if err != nil {
				mu.Lock()
				r.err = err
				mu.Unlock()
			}
			return done, err == nil
		})
	}()
	return r
}

// p50 waits for the control traffic to finish and returns its median
// latency in milliseconds, timed from due time like the lab's.
func (r *controlRun) p50() (float64, error) {
	r.wg.Wait()
	if r.err != nil {
		return 0, fmt.Errorf("control request: %w", r.err)
	}
	var lat []float64
	for _, s := range r.samples {
		lat = append(lat, ms(s.latency()))
	}
	return median(lat), nil
}
