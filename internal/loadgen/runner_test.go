package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/jobs"
	"repro/internal/serve"
)

func newGapd(t *testing.T, opt serve.Options) *httptest.Server {
	t.Helper()
	if opt.Pool == nil {
		opt.Pool = jobs.NewPool(jobs.Options{Workers: 4})
	}
	srv := httptest.NewServer(serve.NewHandler(opt))
	t.Cleanup(srv.Close)
	return srv
}

// TestClosedLoopEndToEnd drives a real in-process gapd with the closed
// loop over a small cache-churning corpus and checks the report's
// accounting against the run.
func TestClosedLoopEndToEnd(t *testing.T) {
	srv := newGapd(t, serve.Options{})
	plan := Plan{
		Seed: 7,
		Arrival: ArrivalSpec{
			Process: ProcClosed, Concurrency: 4, Requests: 48, DurationSec: 30,
		},
		Corpus: CorpusSpec{Family: "faultmix", Size: 8},
	}
	rep, err := Run(context.Background(), plan, RunOptions{Target: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invariants: %v\n%s", err, rep.Table())
	}
	c := rep.Requests
	if c.Scheduled != 48 || c.Completed != 48 || c.Failed != 0 {
		t.Fatalf("counts: %+v, want all 48 completed", c)
	}
	// 8 distinct specs, 48 requests: the server's provenance stamps
	// account for every request exactly — each spec computed once, every
	// other request a RAM hit or a join on an in-flight compute.
	sb := c.ServedBy
	if sb["compute"] != 8 {
		t.Errorf("computed %d, want 8 (corpus has 8 distinct specs); served_by %v", sb["compute"], sb)
	}
	if got := sb["ram"] + sb["join"] + sb["compute"]; got != 48 {
		t.Errorf("ram + join + compute = %d, want 48; served_by %v", got, sb)
	}
	if rep.Latency.Count != 48 || rep.Latency.P50MS <= 0 {
		t.Errorf("latency summary %+v", rep.Latency)
	}
	if s := rep.PerKind["evaluate"]; s == nil || s.Completed != 48 {
		t.Errorf("per-kind evaluate slice: %+v", rep.PerKind)
	}
	if s := rep.PerPhase["closed"]; s == nil || s.Completed != 48 {
		t.Errorf("per-phase closed slice: %+v", rep.PerPhase)
	}
	if c.GoodputRPS <= 0 || c.DurationSec <= 0 {
		t.Errorf("rates not computed: %+v", c)
	}
}

// shedServer sheds the first n requests with 429 + Retry-After, then
// answers 200 with a minimal result envelope, recording request times.
type shedServer struct {
	mu         sync.Mutex
	sheds      int
	retryAfter string
	times      []time.Time
}

func (s *shedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.times = append(s.times, time.Now())
	shed := s.sheds > 0
	if shed {
		s.sheds--
	}
	s.mu.Unlock()
	if shed {
		w.Header().Set("Retry-After", s.retryAfter)
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"overloaded"}`))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"id":"x","kind":"evaluate"}`))
}

// TestClosedLoopHonorsRetryAfter: the closed loop must wait out the
// server's Retry-After hint before re-issuing a shed request — the
// regression test for the gapload-discovered rough edge that a 429's
// backoff hint was parsed nowhere.
func TestClosedLoopHonorsRetryAfter(t *testing.T) {
	shed := &shedServer{sheds: 1, retryAfter: "1"}
	srv := httptest.NewServer(shed)
	t.Cleanup(srv.Close)

	plan := Plan{
		Seed:    1,
		Arrival: ArrivalSpec{Process: ProcClosed, Concurrency: 1, Requests: 1},
		Corpus:  CorpusSpec{Family: "faultmix", Size: 2},
	}
	rep, err := Run(context.Background(), plan, RunOptions{Target: srv.URL, MaxShedRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invariants: %v", err)
	}
	c := rep.Requests
	if c.Shed != 1 || c.Completed != 1 || c.Failed != 0 || c.Issued != 2 {
		t.Fatalf("counts %+v, want 1 shed then 1 completed in 2 issues", c)
	}
	shed.mu.Lock()
	defer shed.mu.Unlock()
	if len(shed.times) != 2 {
		t.Fatalf("server saw %d requests, want 2", len(shed.times))
	}
	if gap := shed.times[1].Sub(shed.times[0]); gap < 900*time.Millisecond {
		t.Errorf("retry after %v, want >= ~1s (Retry-After honored)", gap)
	}
}

// TestClosedLoopShedGiveUp: a server that never stops shedding must
// yield a terminal "shed" failure after MaxShedRetries, not a hang.
func TestClosedLoopShedGiveUp(t *testing.T) {
	shed := &shedServer{sheds: 1 << 30, retryAfter: "0"} // clamped to 100ms
	srv := httptest.NewServer(shed)
	t.Cleanup(srv.Close)

	plan := Plan{
		Seed:    1,
		Arrival: ArrivalSpec{Process: ProcClosed, Concurrency: 1, Requests: 1},
		Corpus:  CorpusSpec{Family: "faultmix", Size: 2},
	}
	rep, err := Run(context.Background(), plan, RunOptions{Target: srv.URL, MaxShedRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invariants: %v", err)
	}
	c := rep.Requests
	if c.Failed != 1 || c.Issued != 3 || c.Shed != 3 {
		t.Fatalf("counts %+v, want 3 issues (1 + 2 retries) all shed then terminal failure", c)
	}
	if rep.Errors["shed"] != 1 {
		t.Fatalf("errors %v, want shed=1", rep.Errors)
	}
}

// TestOpenLoopDropsShed: the open loop records 429 as a terminal shed
// failure without retrying — offered load is the independent variable.
func TestOpenLoopDropsShed(t *testing.T) {
	shed := &shedServer{sheds: 1 << 30, retryAfter: "1"}
	srv := httptest.NewServer(shed)
	t.Cleanup(srv.Close)

	plan := Plan{
		Seed:    7,
		Arrival: ArrivalSpec{Process: ProcPoisson, Rate: 400, DurationSec: 0.25},
		Corpus:  CorpusSpec{Family: "faultmix", Size: 2},
	}
	rep, err := Run(context.Background(), plan, RunOptions{Target: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invariants: %v", err)
	}
	c := rep.Requests
	if c.Scheduled == 0 {
		t.Fatal("empty schedule")
	}
	if c.Issued != c.Scheduled || c.Failed != c.Scheduled || c.Completed != 0 {
		t.Fatalf("counts %+v, want every arrival issued once and shed terminally", c)
	}
	if rep.Errors["shed"] != c.Failed {
		t.Fatalf("errors %v, want all failures classed shed", rep.Errors)
	}
}

// TestFetchTargetInfo stamps against the real serve handler: build_info
// and uptime_seconds must come back usable.
func TestFetchTargetInfo(t *testing.T) {
	srv := newGapd(t, serve.Options{})
	info, err := FetchTargetInfo(context.Background(), nil, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes != 1 {
		t.Errorf("nodes %d, want 1 for a single node", info.Nodes)
	}
	if info.UptimeSeconds < 0 {
		t.Errorf("uptime %v", info.UptimeSeconds)
	}
	if v, ok := info.Build["go"].(string); !ok || v == "" {
		t.Errorf("build_info.go missing: %v", info.Build)
	}
	if info.StoreMode != "ram" {
		t.Errorf("store mode %q for a RAM-only pool, want ram", info.StoreMode)
	}
	if info.StoreSegmentBytes != 0 || info.StoreMaxBytes != 0 {
		t.Errorf("RAM-only target reports store geometry %d/%d", info.StoreSegmentBytes, info.StoreMaxBytes)
	}
}

// TestFetchTargetInfoStoreProvenance: a disk-tier target stamps its
// store mode and geometry into the report — a throughput number means
// something different when every hit crosses CRC+digest verification.
func TestFetchTargetInfoStoreProvenance(t *testing.T) {
	st, err := cas.Open(cas.Options{Dir: t.TempDir(), SegmentBytes: 8 << 20, MaxBytes: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	pool := jobs.NewPool(jobs.Options{Workers: 2, Store: st})
	srv := newGapd(t, serve.Options{Pool: pool})

	info, err := FetchTargetInfo(context.Background(), nil, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if info.StoreMode != "disk" {
		t.Errorf("store mode %q, want disk", info.StoreMode)
	}
	if info.StoreSegmentBytes != 8<<20 {
		t.Errorf("segment bytes %d, want %d", info.StoreSegmentBytes, int64(8<<20))
	}
	if info.StoreMaxBytes != 128<<20 {
		t.Errorf("max bytes %d, want %d", info.StoreMaxBytes, int64(128<<20))
	}
}
