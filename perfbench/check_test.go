package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"emx/internal/cluster"
	"emx/internal/labd"
	"emx/internal/labd/service"
)

// serveOnce answers one request with a real emxd handler, as a node
// behind the cluster client would.
func serveOnce(t *testing.T, srv *service.Server, endpoint string, body []byte) *cluster.Result {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", endpoint, bytes.NewReader(body)))
	return &cluster.Result{Status: rec.Code, Header: rec.Header(), Body: rec.Body.Bytes()}
}

func TestCorrectnessGate(t *testing.T) {
	srv := service.New(service.Options{Scale: serveScale, Sched: labd.Options{Workers: 1}})
	defer srv.Close()
	run, _ := json.Marshal(service.RunRequest{Workload: "fft", P: 4, H: 2, N: 1 << 19, Scale: serveScale, Seed: 3})
	prof, _ := json.Marshal(service.ProfileRequest{RunRequest: service.RunRequest{Workload: "bitonic", P: 4, H: 2, N: 1 << 19, Scale: serveScale, Seed: 3}})
	fig, _ := json.Marshal(service.FigureRequest{Fig: "6c", Scale: serveScale, Seed: 3})

	for _, tc := range []struct {
		endpoint string
		body     []byte
		source   string
		// mutate corrupts one value of a correct body.
		mutate func([]byte) []byte
	}{
		{"/v1/run", run, "executed", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"p": 4`), []byte(`"p": 5`), 1)
		}},
		{"/v1/profile", prof, "executed", func(b []byte) []byte {
			i := bytes.IndexAny(b, "123456789")
			out := append([]byte(nil), b...)
			out[i] = '0' + (out[i]-'0')%9 + 1
			return out
		}},
		{"/v1/figure", fig, "", func(b []byte) []byte {
			i := bytes.Index(b, []byte(`"figures"`))
			j := i + bytes.IndexAny(b[i:], "123456789")
			out := append([]byte(nil), b...)
			out[j] = '0' + (out[j]-'0')%9 + 1
			return out
		}},
	} {
		exp, err := expect(tc.endpoint, tc.body, new(atomic.Uint64))
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.endpoint, err)
		}
		res := serveOnce(t, srv, tc.endpoint, tc.body)
		src, err := exp.check(res)
		if err != nil {
			t.Fatalf("%s: correct answer rejected: %v", tc.endpoint, err)
		}
		if src != tc.source {
			t.Errorf("%s: source %q, want %q", tc.endpoint, src, tc.source)
		}
		// A second answer comes from the cache and must pass too.
		if _, err := exp.check(serveOnce(t, srv, tc.endpoint, tc.body)); err != nil {
			t.Errorf("%s: cached answer rejected: %v", tc.endpoint, err)
		}

		bad := *res
		bad.Body = tc.mutate(res.Body)
		if bytes.Equal(bad.Body, res.Body) {
			t.Fatalf("%s: mutation left the body unchanged", tc.endpoint)
		}
		if _, err := exp.check(&bad); !errors.As(err, new(wrongAnswer)) {
			t.Errorf("%s: mutated answer: got %v, want a wrongAnswer", tc.endpoint, err)
		}
	}

	// A non-2xx answer is a failure, but not a wrong answer.
	exp, err := expect("/v1/run", run, new(atomic.Uint64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.check(&cluster.Result{Status: 503, Body: []byte("busy")}); err == nil || errors.As(err, new(wrongAnswer)) {
		t.Errorf("503: got %v, want a plain failure", err)
	}
}

// A served phase with a wrong answer makes the outcome incorrect and
// counts the request as failed.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	o := newOutcome(config{seed: 1})
	o.limit = 10
	o.addServed(&served{
		samples: []sample{{Due: 0, Sent: 1, Done: 5, OK: true}, {Due: 0, Sent: 1, Done: 5, OK: false}},
		wrong:   1,
		errors:  []string{"/v1/run: run differs from the reference"},
	}, time.Second)
	if len(o.failures) != 1 || o.failed != 1 || o.ops != 2 || o.within != 1 {
		t.Errorf("failures %v, failed %d, ops %d, within %d", o.failures, o.failed, o.ops, o.within)
	}
	if !strings.Contains(o.failures[0], "differed") {
		t.Errorf("failure message %q", o.failures[0])
	}
}
