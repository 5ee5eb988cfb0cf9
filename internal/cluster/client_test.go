package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"emx/internal/labd/service"
	"emx/internal/metrics"
)

func figureBody(t *testing.T, fig string) []byte {
	t.Helper()
	b, err := json.Marshal(service.FigureRequest{Fig: fig, Scale: hugeScale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestClientRoutesToOwner(t *testing.T) {
	_, ts1 := newNode(t)
	_, ts2 := newNode(t)
	m := NewMembership([]string{ts1.URL, ts2.URL}, MembershipOptions{})
	reg := metrics.NewRegistry()
	c := NewClient(m, ClientOptions{Registry: reg, RetryBackoff: time.Millisecond})

	key := FigureKey("6a", hugeScale, 1)
	owner := NewRing(m.Members()).Owner(key)
	res, err := c.Do(key, "/v1/figure", figureBody(t, "6a"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Node != owner {
		t.Errorf("request answered by %s, want ring owner %s", res.Node, owner)
	}
	if res.Status != http.StatusOK {
		t.Errorf("status %d", res.Status)
	}
	if reg.Snapshot()["emxcluster_failovers_total"] != 0 {
		t.Error("routine owner hit counted as failover")
	}
}

func TestClientFailsOverToPeer(t *testing.T) {
	srv1, ts1 := newNode(t)
	srv2, ts2 := newNode(t)
	m := NewMembership([]string{ts1.URL, ts2.URL}, MembershipOptions{})
	reg := metrics.NewRegistry()
	c := NewClient(m, ClientOptions{Registry: reg, RetryBackoff: time.Millisecond})

	key := FigureKey("6a", hugeScale, 1)
	owner := NewRing(m.Members()).Owner(key)
	// Kill the owner; the peer must answer with identical bytes.
	peer := srv2
	if owner == ts1.URL {
		ts1.Close()
	} else {
		ts2.Close()
		peer = srv1
	}

	res, err := c.Do(key, "/v1/figure", figureBody(t, "6a"))
	if err != nil {
		t.Fatalf("failover did not rescue the request: %v", err)
	}
	if res.Node == owner {
		t.Fatal("dead owner answered")
	}
	if res.Status != http.StatusOK {
		t.Fatalf("status %d", res.Status)
	}
	if m.IsHealthy(owner) {
		t.Error("dead owner not passively marked down")
	}
	snap := reg.Snapshot()
	if snap["emxcluster_failovers_total"] == 0 || snap["emxcluster_retries_total"] == 0 {
		t.Errorf("failover/retry counters not moved: %v", snap)
	}
	if peer.Scheduler().Stats().Started == 0 {
		t.Error("surviving peer executed nothing")
	}
}

func TestClientBusyNodeRetriesAndHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	busyThenOK := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"labd: run queue full"}`))
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer busyThenOK.Close()

	m := NewMembership([]string{busyThenOK.URL}, MembershipOptions{})
	reg := metrics.NewRegistry()
	c := NewClient(m, ClientOptions{
		Registry:     reg,
		RetryBackoff: time.Millisecond,
		MaxRetryWait: 5 * time.Millisecond, // cap the 1s Retry-After for the test
	})
	start := time.Now()
	res, err := c.Do("some-key", "/v1/run", []byte(`{}`))
	if err != nil || res.Status != http.StatusOK {
		t.Fatalf("res %+v err %v", res, err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("MaxRetryWait did not cap the Retry-After wait: %s", elapsed)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2 (busy then success)", calls.Load())
	}
	// Backpressure must not mark the node dead — it answered.
	if !m.IsHealthy(busyThenOK.URL) {
		t.Error("503 backpressure marked the node down")
	}
}

func TestClientDoesNotRetryValidationErrors(t *testing.T) {
	var calls atomic.Int32
	badReq := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"p must be >= 1"}`))
	}))
	defer badReq.Close()

	m := NewMembership([]string{badReq.URL}, MembershipOptions{})
	c := NewClient(m, ClientOptions{RetryBackoff: time.Millisecond})
	res, err := c.Do("k", "/v1/run", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 passed through", res.Status)
	}
	if calls.Load() != 1 {
		t.Fatalf("4xx retried: %d calls", calls.Load())
	}
}

// keyOwnedBy returns a routing key whose ring owner is node.
func keyOwnedBy(t *testing.T, m *Membership, node string) string {
	t.Helper()
	ring := NewRing(m.Members())
	key := "k0"
	for i := 0; ring.Owner(key) != node && i < 10000; i++ {
		key = "k" + string(rune('a'+i%26)) + key
	}
	if ring.Owner(key) != node {
		t.Fatalf("could not construct a key owned by %s", node)
	}
	return key
}

// trackedBody counts Close calls so the test can prove every response
// body the transport handed out was closed.
type trackedBody struct {
	io.ReadCloser
	closed *atomic.Int64
}

func (b trackedBody) Close() error {
	b.closed.Add(1)
	return b.ReadCloser.Close()
}

// trackedTransport wraps the default transport and counts the response
// bodies it opens and the ones callers close.
type trackedTransport struct {
	opened, closed atomic.Int64
}

func (tt *trackedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if resp != nil {
		tt.opened.Add(1)
		resp.Body = trackedBody{resp.Body, &tt.closed}
	}
	return resp, err
}

// TestClientSlowOwnerAnsweredOnce pins the one-attempt-at-a-time
// path: a slow-but-alive owner is waited for, never raced, so each
// request costs exactly one attempt, the owner stays healthy, and every
// response body is closed by the time Do returns — including the
// bodies of the 503 and 500 responses that send a request on to the
// next candidate.
func TestClientSlowOwnerAnsweredOnce(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		switch string(b) {
		case "busy":
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"busy"}`))
			return
		case "broken":
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"error":"broken"}`))
			return
		}
		select {
		case <-time.After(10 * time.Millisecond): //emx:hostclock test fixture: slower-but-alive owner
		case <-r.Context().Done():
			return
		}
		w.Write([]byte(`{"slow":true}`))
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"fast":true}`))
	}))
	defer fast.Close()

	m := NewMembership([]string{slow.URL, fast.URL}, MembershipOptions{})
	reg := metrics.NewRegistry()
	tt := &trackedTransport{}
	c := NewClient(m, ClientOptions{
		Registry:     reg,
		RetryBackoff: time.Millisecond,
		HTTPClient:   &http.Client{Transport: tt},
	})
	key := keyOwnedBy(t, m, slow.URL)

	const rounds = 25
	for i := 0; i < rounds; i++ {
		res, err := c.Do(key, "/v1/run", []byte(`{}`))
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if res.Status != http.StatusOK || res.Node != slow.URL {
			t.Fatalf("round %d: status %d from %s, want 200 from the owner", i, res.Status, res.Node)
		}
	}
	if s := c.Stats(); s != (Stats{Attempts: rounds}) {
		t.Errorf("stats %+v, want %d attempts and nothing else", s, rounds)
	}
	if !m.IsHealthy(slow.URL) {
		t.Error("slow owner marked unhealthy")
	}
	if errs := reg.Snapshot()[`emxcluster_node_errors_total{node="`+slow.URL+`"}`]; errs != 0 {
		t.Errorf("slow owner has %v node errors", errs)
	}

	// A 503 and then a 500 from the owner each move the request on to
	// the next candidate; neither response body may leak.
	for _, body := range []string{"busy", "broken"} {
		res, err := c.Do(key, "/v1/run", []byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if res.Node != fast.URL {
			t.Fatalf("%s: answered by %s, want the next candidate %s", body, res.Node, fast.URL)
		}
	}
	if s := c.Stats().Sub(Stats{Attempts: rounds}); s != (Stats{Attempts: 4, Retries: 2, Failovers: 2}) {
		t.Errorf("retry-path stats %+v, want 4 attempts, 2 retries, 2 failovers", s)
	}
	if opened, closed := tt.opened.Load(), tt.closed.Load(); opened != rounds+4 || closed != opened {
		t.Errorf("response bodies: %d opened, %d closed; want %d, all closed", opened, closed, rounds+4)
	}
}

// TestClientDeadlineDoesNotPoisonOwner: an attempt cut off by the
// request's own deadline says nothing about the node, so a healthy but
// slower owner stays healthy and keeps its traffic (and its warm
// cache). AttemptTimeout expiry, by contrast, does mark the node down:
// that timeout exists to catch slow nodes.
func TestClientDeadlineDoesNotPoisonOwner(t *testing.T) {
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(200 * time.Millisecond): //emx:hostclock test fixture: slower-but-alive owner
		case <-r.Context().Done():
			return
		}
		w.Write([]byte(`{"owner":true}`))
	}))
	defer owner.Close()
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"other":true}`))
	}))
	defer other.Close()

	m := NewMembership([]string{owner.URL, other.URL}, MembershipOptions{})
	reg := metrics.NewRegistry()
	c := NewClient(m, ClientOptions{Registry: reg, RetryBackoff: time.Millisecond})
	key := keyOwnedBy(t, m, owner.URL)
	errsKey := `emxcluster_node_errors_total{node="` + owner.URL + `"}`

	deadline := time.Now().Add(20 * time.Millisecond) //emx:hostclock test deadline
	if res, err := c.DoDeadline(key, "/v1/run", []byte(`{}`), deadline); err == nil {
		t.Fatalf("20ms deadline against a 200ms owner answered by %s", res.Node)
	}
	if !m.IsHealthy(owner.URL) {
		t.Error("request deadline marked the owner down")
	}
	if errs := reg.Snapshot()[errsKey]; errs != 0 {
		t.Errorf("request deadline counted as %v node errors", errs)
	}
	res, err := c.Do(key, "/v1/run", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Node != owner.URL {
		t.Errorf("next request answered by %s, want the owner %s", res.Node, owner.URL)
	}

	m2 := NewMembership([]string{owner.URL, other.URL}, MembershipOptions{})
	reg2 := metrics.NewRegistry()
	c2 := NewClient(m2, ClientOptions{
		Registry:       reg2,
		RetryBackoff:   time.Millisecond,
		AttemptTimeout: 20 * time.Millisecond,
	})
	res, err = c2.Do(key, "/v1/run", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Node != other.URL {
		t.Errorf("timed-out owner: answered by %s, want failover to %s", res.Node, other.URL)
	}
	if m2.IsHealthy(owner.URL) {
		t.Error("AttemptTimeout expiry left the slow owner healthy")
	}
	if errs := reg2.Snapshot()[errsKey]; errs != 1 {
		t.Errorf("AttemptTimeout expiry counted as %v node errors, want 1", errs)
	}
}

func TestClientLocalFallback(t *testing.T) {
	srv := service.New(service.Options{Scale: hugeScale, Seed: 1})
	defer srv.Close()

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	m := NewMembership([]string{dead.URL}, MembershipOptions{})
	reg := metrics.NewRegistry()
	c := NewClient(m, ClientOptions{
		Registry:     reg,
		Retries:      -1, // no remote retries: straight to local after the owner fails
		RetryBackoff: time.Millisecond,
		Local:        srv.Handler(),
	})

	figs, err := c.Figure("6a", hugeScale, 1)
	if err != nil {
		t.Fatalf("local fallback failed: %v", err)
	}
	if len(figs) != 1 || figs[0].SimCycles == 0 {
		t.Fatalf("bad figures %+v", figs)
	}
	if reg.Snapshot()["emxcluster_local_fallback_total"] != 1 {
		t.Error("local fallback not counted")
	}
	if srv.Scheduler().Stats().Started == 0 {
		t.Error("local scheduler executed nothing")
	}
}

// TestClientStatsDeltas: Stats snapshots diff into the per-run outcome
// counts load generators report.
func TestClientStatsDeltas(t *testing.T) {
	srv1, ts1 := newNode(t)
	_, ts2 := newNode(t)
	_ = srv1
	m := NewMembership([]string{ts1.URL, ts2.URL}, MembershipOptions{})
	c := NewClient(m, ClientOptions{RetryBackoff: time.Millisecond})

	key := FigureKey("6a", hugeScale, 1)
	before := c.Stats()
	if _, err := c.Do(key, "/v1/figure", figureBody(t, "6a")); err != nil {
		t.Fatal(err)
	}
	d := c.Stats().Sub(before)
	if d.Attempts != 1 || d.Retries != 0 || d.Failovers != 0 {
		t.Fatalf("healthy-owner deltas: %+v", d)
	}

	// Kill the owner: the next request must retry and fail over, and
	// the deltas must show exactly that.
	owner := NewRing(m.Members()).Owner(key)
	for _, ts := range []*httptest.Server{ts1, ts2} {
		if ts.URL == owner {
			ts.CloseClientConnections()
			ts.Close()
		}
	}
	before = c.Stats()
	res, err := c.Do(key, "/v1/figure", figureBody(t, "6a"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Node == owner {
		t.Fatalf("dead owner %s answered", owner)
	}
	d = c.Stats().Sub(before)
	if d.Failovers != 1 || d.Retries == 0 {
		t.Fatalf("dead-owner deltas: %+v", d)
	}
}

// TestClientStampsDeadlineHeader: DoDeadline sends the absolute
// deadline on every attempt in the exact FormatDeadline encoding, and
// a zero deadline sends no header at all.
func TestClientStampsDeadlineHeader(t *testing.T) {
	var header atomic.Value
	echo := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		header.Store(r.Header.Get(service.DeadlineHeader))
		w.Write([]byte("{}"))
	}))
	t.Cleanup(echo.Close)
	m := NewMembership([]string{echo.URL}, MembershipOptions{})
	c := NewClient(m, ClientOptions{})

	deadline := time.Now().Add(time.Hour) //emx:hostclock test fixture deadline
	if _, err := c.DoDeadline("k", "/v1/run", []byte("{}"), deadline); err != nil {
		t.Fatal(err)
	}
	if got, want := header.Load().(string), service.FormatDeadline(deadline); got != want {
		t.Fatalf("deadline header = %q, want %q", got, want)
	}

	if _, err := c.Do("k", "/v1/run", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if got := header.Load().(string); got != "" {
		t.Fatalf("zero deadline sent header %q", got)
	}
}

// TestClientExpiredDeadlineFailsWithoutAttempt: a dead deadline stops
// the client before any network traffic.
func TestClientExpiredDeadlineFailsWithoutAttempt(t *testing.T) {
	var hits atomic.Int64
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte("{}"))
	}))
	t.Cleanup(node.Close)
	m := NewMembership([]string{node.URL}, MembershipOptions{})
	c := NewClient(m, ClientOptions{})

	if _, err := c.DoDeadline("k", "/v1/run", []byte("{}"), time.Unix(1, 0)); err == nil {
		t.Fatal("expired deadline succeeded")
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("expired request reached the node %d times", n)
	}
}
