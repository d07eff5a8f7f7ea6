package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/jobs"
)

func newTestServer(t *testing.T) (*httptest.Server, *jobs.Pool) {
	t.Helper()
	pool := jobs.NewPool(jobs.Options{Workers: 4})
	srv := httptest.NewServer(NewHandler(Options{Pool: pool}))
	t.Cleanup(srv.Close)
	return srv, pool
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestEvaluateEndToEnd is the service acceptance test: POST /v1/evaluate
// must return exactly the clock rate a direct core.Evaluate call
// produces, and the repeated identical request must be served from the
// cache with the hit visible in GET /metrics.
func TestEvaluateEndToEnd(t *testing.T) {
	srv, _ := newTestServer(t)
	const body = `{"design":{"name":"datapath","width":8,"depth":2},"methodology":{"base":"typical-asic"},"seed":3}`

	resp, raw := postJSON(t, srv.URL+"/v1/evaluate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var res jobs.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if by := resp.Header.Get(cluster.ServedByHeader); by != "compute" || res.Evaluation == nil {
		t.Fatalf("first response: served by %q, eval=%v", by, res.Evaluation)
	}

	// Reference: the same evaluation straight through internal/core.
	d, err := jobs.DesignSpec{Name: "datapath", Width: 8, Depth: 2}.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	m, err := jobs.MethSpec{Base: "typical-asic"}.Resolve(3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Evaluate(d, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluation.ShippedMHz != want.ShippedMHz {
		t.Errorf("service shipped %.6f MHz != direct %.6f MHz",
			res.Evaluation.ShippedMHz, want.ShippedMHz)
	}

	// The identical request again: must be a cache hit, same numbers.
	resp2, raw2 := postJSON(t, srv.URL+"/v1/evaluate", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d: %s", resp2.StatusCode, raw2)
	}
	var res2 jobs.Result
	if err := json.Unmarshal(raw2, &res2); err != nil {
		t.Fatal(err)
	}
	if by := resp2.Header.Get(cluster.ServedByHeader); by != "ram" {
		t.Errorf("repeat request served by %q, want ram", by)
	}
	if !bytes.Equal(raw2, raw) {
		t.Error("cache hit body differs from the computed body")
	}
	if res2.Evaluation.ShippedMHz != res.Evaluation.ShippedMHz {
		t.Error("cache served a different evaluation")
	}
	if res2.ID != res.ID {
		t.Errorf("ids differ: %s vs %s", res2.ID, res.ID)
	}

	// The hit must be visible in /metrics.
	var metrics struct {
		Jobs struct {
			Started   int64 `json:"started"`
			Completed int64 `json:"completed"`
		} `json:"jobs"`
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
		LatencyMS map[string]json.RawMessage `json:"latency_ms"`
	}
	getJSON(t, srv.URL+"/metrics", &metrics)
	if metrics.Cache.Hits != 1 || metrics.Cache.Misses != 1 {
		t.Errorf("cache hits=%d misses=%d, want 1/1", metrics.Cache.Hits, metrics.Cache.Misses)
	}
	if metrics.Jobs.Completed != 1 {
		t.Errorf("jobs completed = %d, want 1", metrics.Jobs.Completed)
	}
	if _, ok := metrics.LatencyMS["job_evaluate"]; !ok {
		t.Error("latency_ms missing job_evaluate histogram")
	}
	if _, ok := metrics.LatencyMS["stage_timing"]; !ok {
		t.Error("latency_ms missing per-stage histograms")
	}
}

func TestLadderAndSweepEndpoints(t *testing.T) {
	srv, _ := newTestServer(t)

	resp, raw := postJSON(t, srv.URL+"/v1/ladder",
		`{"design":{"name":"datapath","width":8,"depth":2},"seed":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ladder status %d: %s", resp.StatusCode, raw)
	}
	var lad jobs.Result
	if err := json.Unmarshal(raw, &lad); err != nil {
		t.Fatal(err)
	}
	if lad.Kind != jobs.KindLadder || lad.Ladder == nil || len(lad.Ladder.Steps) != 5 {
		t.Fatalf("bad ladder result: %+v", lad)
	}

	resp, raw = postJSON(t, srv.URL+"/v1/sweep",
		`{"design":{"name":"datapath","width":8,"depth":2},"max_stages":4,"workload":"integer","seed":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, raw)
	}
	var sw jobs.Result
	if err := json.Unmarshal(raw, &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Kind != jobs.KindSweep || len(sw.Sweep) != 4 {
		t.Fatalf("bad sweep result: %+v", sw)
	}
	if sw.Sweep[0].ThroughputRel != 1 {
		t.Errorf("sweep not normalized to 1 stage: %g", sw.Sweep[0].ThroughputRel)
	}
}

func TestJobStatusEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	_, raw := postJSON(t, srv.URL+"/v1/evaluate",
		`{"design":{"name":"datapath","width":8,"depth":2}}`)
	var res jobs.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}

	var st jobs.JobStatus
	resp := getJSON(t, srv.URL+"/v1/jobs/"+res.ID, &st)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if st.State != jobs.StateDone || st.ID != res.ID || st.Result == nil {
		t.Errorf("job status = %+v", st)
	}

	// Unknown but well-formed id -> 404.
	missing := strings.Repeat("0", 64)
	var e map[string]string
	if resp := getJSON(t, srv.URL+"/v1/jobs/"+missing, &e); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job status = %d", resp.StatusCode)
	}
	// Malformed id -> 400.
	if resp := getJSON(t, srv.URL+"/v1/jobs/nope", &e); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed id status = %d", resp.StatusCode)
	}
}

func TestRequestValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		name, path, body string
		wantStatus       int
	}{
		{"bad json", "/v1/evaluate", `{`, http.StatusBadRequest},
		{"unknown field", "/v1/evaluate", `{"design":{"name":"cla"},"frobnicate":1}`, http.StatusBadRequest},
		{"unknown design", "/v1/evaluate", `{"design":{"name":"teapot"}}`, http.StatusBadRequest},
		{"kind mismatch", "/v1/evaluate", `{"kind":"sweep","design":{"name":"cla"}}`, http.StatusBadRequest},
		{"width too big", "/v1/evaluate", `{"design":{"name":"cla","width":1000}}`, http.StatusBadRequest},
		{"procvar rejected", "/v1/sweep", `{"kind":"procvar","design":{"name":"cla"}}`, http.StatusBadRequest},
		// Spec errors only detectable at resolve time (inside the pool)
		// must still surface as 400, not 500.
		{"domino without domino cells", "/v1/evaluate",
			`{"design":{"name":"cla"},"methodology":{"base":"best-practice","domino_frac":0.5}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, raw := postJSON(t, srv.URL+tc.path, tc.body)
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d want %d (%s)", tc.name, resp.StatusCode, tc.wantStatus, raw)
		}
		var e map[string]string
		if err := json.Unmarshal(raw, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body %q", tc.name, raw)
		}
	}

	// Method not allowed comes from the ServeMux patterns.
	resp, err := http.Get(srv.URL + "/v1/evaluate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/evaluate status = %d", resp.StatusCode)
	}
}

func TestBodySizeLimit(t *testing.T) {
	pool := jobs.NewPool(jobs.Options{Workers: 1})
	srv := httptest.NewServer(NewHandler(Options{Pool: pool, MaxBodyBytes: 128}))
	defer srv.Close()
	big := `{"design":{"name":"datapath"},"workload":"` + strings.Repeat("x", 256) + `"}`
	resp, raw := postJSON(t, srv.URL+"/v1/sweep", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d (%s)", resp.StatusCode, raw)
	}
	var e map[string]string
	if err := json.Unmarshal(raw, &e); err != nil || e["error"] == "" {
		t.Errorf("413 body is not the error envelope: %q", raw)
	}
}

// TestDecodeErrorEnvelopes pins the documented decode-rejection contract:
// each malformed-request class maps to its status — 415 for a non-JSON
// content type, 413 for an oversized body, 400 for anything broken
// inside the body — and every rejection is the JSON {"error": ...}
// envelope.
func TestDecodeErrorEnvelopes(t *testing.T) {
	pool := jobs.NewPool(jobs.Options{Workers: 1})
	srv := httptest.NewServer(NewHandler(Options{Pool: pool, MaxBodyBytes: 256}))
	defer srv.Close()

	valid := `{"design":{"name":"datapath","width":8,"depth":2}}`
	cases := []struct {
		name, path, contentType, body string
		wantStatus                    int
	}{
		{"wrong content type", "/v1/evaluate", "text/plain", valid, http.StatusUnsupportedMediaType},
		{"unparsable content type", "/v1/evaluate", "application/;;", valid, http.StatusUnsupportedMediaType},
		{"json with params accepted", "/v1/evaluate", "application/json; charset=utf-8", valid, http.StatusOK},
		{"no content type accepted", "/v1/evaluate", "", valid, http.StatusOK},
		{"oversized body", "/v1/evaluate", "application/json",
			`{"design":{"name":"datapath"},"workload":"` + strings.Repeat("x", 512) + `"}`,
			http.StatusRequestEntityTooLarge},
		{"malformed json", "/v1/evaluate", "application/json", `{"design":`, http.StatusBadRequest},
		{"trailing data", "/v1/evaluate", "application/json", valid + `{"x":1}`, http.StatusBadRequest},
		{"unknown job kind", "/v1/evaluate", "application/json",
			`{"kind":"transmogrify","design":{"name":"cla"}}`, http.StatusBadRequest},
		{"kind/endpoint mismatch", "/v1/ladder", "application/json",
			`{"kind":"evaluate","design":{"name":"cla"}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(http.MethodPost, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if tc.contentType != "" {
			req.Header.Set("Content-Type", tc.contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d want %d (%s)", tc.name, resp.StatusCode, tc.wantStatus, buf.Bytes())
		}
		if tc.wantStatus != http.StatusOK {
			var e map[string]string
			if err := json.Unmarshal(buf.Bytes(), &e); err != nil || e["error"] == "" {
				t.Errorf("%s: rejection body is not the error envelope: %q", tc.name, buf.Bytes())
			}
		}
	}
}

// TestVersionEndpoint: GET /v1/version reports the build's module, Go
// toolchain, and version; without clustering there is no node field, and
// GET /v1/cluster is a 404.
func TestVersionEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	var v map[string]any
	resp := getJSON(t, srv.URL+"/v1/version", &v)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("version status %d", resp.StatusCode)
	}
	if v["go"] == "" || v["version"] == "" {
		t.Errorf("version payload incomplete: %v", v)
	}
	if _, ok := v["node"]; ok {
		t.Errorf("unclustered version payload has node: %v", v)
	}

	var e map[string]string
	if resp := getJSON(t, srv.URL+"/v1/cluster", &e); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unclustered /v1/cluster status = %d", resp.StatusCode)
	} else if e["error"] == "" {
		t.Error("unclustered /v1/cluster missing error envelope")
	}
}

func TestHealthz(t *testing.T) {
	srv, pool := newTestServer(t)
	var h map[string]any
	resp := getJSON(t, srv.URL+"/healthz", &h)
	if resp.StatusCode != http.StatusOK || h["status"] != "ok" {
		t.Errorf("healthz = %d %v", resp.StatusCode, h)
	}
	if int(h["workers"].(float64)) != pool.Workers() {
		t.Errorf("workers = %v", h["workers"])
	}
	if h["journal_healthy"] != true {
		t.Errorf("journal_healthy = %v", h["journal_healthy"])
	}
}

// stallServer builds a server whose every job attempt stalls for d
// before completing (a deterministic way to hold workers busy), with the
// given admission limits.
func stallServer(t *testing.T, workers int, d time.Duration, opt Options) *httptest.Server {
	t.Helper()
	in := faultinject.New(faultinject.Plan{
		Seed: 1, StallRate: 1, Latency: d, Match: "pool/",
	})
	opt.Pool = jobs.NewPool(jobs.Options{
		Workers: workers, Injector: in,
	})
	srv := httptest.NewServer(NewHandler(opt))
	t.Cleanup(srv.Close)
	return srv
}

// TestOverloadShedsWithRetryAfter is the overload acceptance test: at 4x
// the admission budget, excess submissions are shed with 429 and a
// Retry-After hint, the pool-facing queue stays bounded by the budget,
// and the sheds are counted in /metrics.
func TestOverloadShedsWithRetryAfter(t *testing.T) {
	// Budget: 1 worker + queue depth 2 = 3 pending; offer 12 (4x).
	srv := stallServer(t, 1, 300*time.Millisecond, Options{MaxQueueDepth: 2})

	const offered = 12
	codes := make([]int, offered)
	retryAfter := make([]string, offered)
	var wg sync.WaitGroup
	for i := 0; i < offered; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(
				`{"design":{"name":"datapath","width":8,"depth":2},"seed":%d}`, i)
			resp, err := http.Post(srv.URL+"/v1/evaluate", "application/json",
				strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Error("429 without Retry-After header")
			}
		default:
			t.Errorf("request %d: status %d", i, code)
		}
	}
	// Every offered request resolved one way or the other (none lost),
	// and the queue stayed bounded: at most budget-many ran.
	if ok+shed != offered {
		t.Errorf("ok %d + shed %d != offered %d", ok, shed, offered)
	}
	if ok > 3 {
		t.Errorf("%d requests admitted, budget is 3", ok)
	}
	if shed < offered-3 {
		t.Errorf("shed %d, want >= %d", shed, offered-3)
	}

	var metrics struct {
		Jobs struct {
			Shed int64 `json:"shed"`
		} `json:"jobs"`
		QueueDepth      int64 `json:"queue_depth"`
		PendingRequests int64 `json:"pending_requests"`
	}
	getJSON(t, srv.URL+"/metrics", &metrics)
	if metrics.Jobs.Shed != int64(shed) {
		t.Errorf("metrics shed = %d, want %d", metrics.Jobs.Shed, shed)
	}
	if metrics.PendingRequests != 0 || metrics.QueueDepth != 0 {
		t.Errorf("admission state leaked: pending=%d queued=%d",
			metrics.PendingRequests, metrics.QueueDepth)
	}
}

// TestPerClientCap: one client may not hold more than its cap of
// concurrent submissions even when the global budget has room.
func TestPerClientCap(t *testing.T) {
	srv := stallServer(t, 4, 300*time.Millisecond,
		Options{MaxQueueDepth: 64, MaxPerClient: 1})

	const offered = 4
	codes := make([]int, offered)
	var wg sync.WaitGroup
	for i := 0; i < offered; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(
				`{"design":{"name":"datapath","width":8,"depth":2},"seed":%d}`, i)
			resp, err := http.Post(srv.URL+"/v1/evaluate", "application/json",
				strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for _, code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		}
	}
	// All requests share the test client's address, so exactly one may
	// be in flight at a time; the stall guarantees overlap.
	if ok > 1 || shed < offered-1 {
		t.Errorf("ok=%d shed=%d with per-client cap 1", ok, shed)
	}
}

// TestHealthzDegradesWhenJournalUnwritable: losing journal durability
// flips /healthz to 503 while jobs keep being served.
func TestHealthzDegradesWhenJournalUnwritable(t *testing.T) {
	j, err := jobs.OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := jobs.NewPool(jobs.Options{Workers: 1, Journal: j})
	srv := httptest.NewServer(NewHandler(Options{Pool: pool}))
	defer srv.Close()
	j.Close() // durability lost out from under the service

	resp, raw := postJSON(t, srv.URL+"/v1/evaluate",
		`{"design":{"name":"datapath","width":8,"depth":2}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job failed on journal loss: %d %s", resp.StatusCode, raw)
	}

	var h map[string]any
	hresp := getJSON(t, srv.URL+"/healthz", &h)
	if hresp.StatusCode != http.StatusServiceUnavailable || h["status"] != "degraded" {
		t.Errorf("healthz = %d %v", hresp.StatusCode, h)
	}
	if h["journal_healthy"] != false {
		t.Errorf("journal_healthy = %v", h["journal_healthy"])
	}

	var metrics struct {
		Journal struct {
			Errors int64 `json:"errors"`
		} `json:"journal"`
	}
	getJSON(t, srv.URL+"/metrics", &metrics)
	if metrics.Journal.Errors == 0 {
		t.Error("journal errors not surfaced in /metrics")
	}
}

// TestMetricsExposesRobustnessCounters: the shed/watchdog/journal
// counter families are all present in /metrics even at zero.
func TestMetricsExposesRobustnessCounters(t *testing.T) {
	srv, _ := newTestServer(t)
	var snap map[string]any
	getJSON(t, srv.URL+"/metrics", &snap)
	jobsBlock, ok := snap["jobs"].(map[string]any)
	if !ok {
		t.Fatalf("metrics jobs block: %v", snap["jobs"])
	}
	for _, key := range []string{"shed", "abandoned"} {
		if _, ok := jobsBlock[key]; !ok {
			t.Errorf("jobs.%s missing from /metrics", key)
		}
	}
	journal, ok := snap["journal"].(map[string]any)
	if !ok {
		t.Fatalf("metrics journal block: %v", snap["journal"])
	}
	for _, key := range []string{"accepted", "stored", "failed", "errors",
		"replayed_done", "replayed_pending", "replays_exhausted"} {
		if _, ok := journal[key]; !ok {
			t.Errorf("journal.%s missing from /metrics", key)
		}
	}
	for _, key := range []string{"queue_depth", "inflight", "abandoned_in_flight",
		"pending_requests"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("%s missing from /metrics", key)
		}
	}
}

// TestMetricsBuildInfo: /metrics must carry uptime_seconds and
// build_info so a load generator can stamp its report with the exact
// server incarnation it measured.
func TestMetricsBuildInfo(t *testing.T) {
	srv, _ := newTestServer(t)
	var snap map[string]any
	getJSON(t, srv.URL+"/metrics", &snap)
	up, ok := snap["uptime_seconds"].(float64)
	if !ok || up < 0 {
		t.Fatalf("uptime_seconds = %v, want non-negative float", snap["uptime_seconds"])
	}
	bi, ok := snap["build_info"].(map[string]any)
	if !ok {
		t.Fatalf("build_info block: %v", snap["build_info"])
	}
	for _, key := range []string{"module", "version", "go"} {
		if v, ok := bi[key].(string); !ok || v == "" {
			t.Errorf("build_info.%s = %v, want non-empty string", key, bi[key])
		}
	}
	// Uptime must advance between scrapes: it identifies an incarnation.
	time.Sleep(5 * time.Millisecond)
	var snap2 map[string]any
	getJSON(t, srv.URL+"/metrics", &snap2)
	if up2 := snap2["uptime_seconds"].(float64); up2 <= up {
		t.Errorf("uptime did not advance: %v then %v", up, up2)
	}
}

// TestHealthzDegradesOnUnrepairableQuarantine: a record the scrubber
// condemned, on a node with no replica set to repair from, flips
// /healthz to 503 (every such record is a recompute waiting to happen);
// a handler with a tolerant CorruptThreshold stays ok. Also pins the
// scrub counters and store geometry the /metrics cas block exposes.
func TestHealthzDegradesOnUnrepairableQuarantine(t *testing.T) {
	dir := t.TempDir()
	st, err := cas.Open(cas.Options{Dir: dir, ScrubSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	body := []byte(`{"payload":"storage integrity probe"}`)
	sum := sha256.Sum256(body)
	addr := hex.EncodeToString(sum[:])
	if err := st.Put(addr, body); err != nil {
		t.Fatal(err)
	}

	pool := jobs.NewPool(jobs.Options{Workers: 1, CacheEntries: -1, Store: st})
	srv := httptest.NewServer(NewHandler(Options{Pool: pool}))
	defer srv.Close()

	var h map[string]any
	if resp := getJSON(t, srv.URL+"/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before damage = %d %v", resp.StatusCode, h)
	}
	if int(h["quarantined"].(float64)) != 0 {
		t.Errorf("quarantined = %v before damage", h["quarantined"])
	}

	// Rot one body byte on disk (the record header is 76 bytes) and let
	// the scrubber find and condemn it.
	segs, err := filepath.Glob(filepath.Join(dir, "*.cas"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segment files = %v (%v)", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, 80); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0x40
	if _, err := f.WriteAt(buf, 80); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for i := 0; i < 100; i++ {
		if pr := st.ScrubStep(16); pr.PassComplete {
			break
		}
	}
	if got := st.Stats().Quarantined; got != 1 {
		t.Fatalf("quarantined = %d after scrub, want 1", got)
	}

	hresp := getJSON(t, srv.URL+"/healthz", &h)
	if hresp.StatusCode != http.StatusServiceUnavailable || h["status"] != "degraded" {
		t.Errorf("healthz with unrepairable quarantine = %d %v", hresp.StatusCode, h)
	}
	if int(h["corrupt_quarantined"].(float64)) != 1 {
		t.Errorf("corrupt_quarantined = %v, want 1", h["corrupt_quarantined"])
	}

	var m struct {
		CAS map[string]any `json:"cas"`
	}
	getJSON(t, srv.URL+"/metrics", &m)
	for _, k := range []string{"scrub_verified", "scrub_corrupt", "scrub_repaired",
		"scrub_passes", "scrub_cursor", "quarantined", "segment_bytes", "max_bytes"} {
		if _, ok := m.CAS[k]; !ok {
			t.Errorf("metrics cas block missing %s", k)
		}
	}
	if got, ok := m.CAS["scrub_corrupt"].(float64); !ok || got != 1 {
		t.Errorf("metrics cas.scrub_corrupt = %v, want 1", m.CAS["scrub_corrupt"])
	}

	// The same store behind a threshold of 1 is tolerated.
	srv2 := httptest.NewServer(NewHandler(Options{Pool: pool, CorruptThreshold: 1}))
	defer srv2.Close()
	if resp := getJSON(t, srv2.URL+"/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz within threshold = %d %v", resp.StatusCode, h)
	}
}

// TestQuiesceWaitsForReplication pins Handler.Quiesce's contract — the
// shutdown path the goroutinelifecycle gate demands for the off-path
// replica push: after a fresh compute's response returns, Quiesce must
// block until the background push to the replica peer has finished,
// not abandon it mid-flight.
func TestQuiesceWaitsForReplication(t *testing.T) {
	var pushStarted, pushFinished atomic.Bool
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v1/results/") {
			pushStarted.Store(true)
			// Long enough that a Quiesce that does not actually wait
			// observes the push still unfinished.
			time.Sleep(150 * time.Millisecond)
			pushFinished.Store(true)
			w.WriteHeader(http.StatusCreated)
			return
		}
		http.NotFound(w, r)
	}))
	t.Cleanup(peer.Close)

	pool := jobs.NewPool(jobs.Options{Workers: 2})
	clu, err := cluster.New(cluster.Options{
		SelfID:         "self",
		Peers:          []cluster.Peer{{ID: "self", URL: "http://self.invalid"}, {ID: "peer", URL: peer.URL}},
		Replicas:       2,
		HedgeAfter:     -1,
		RequestTimeout: 5 * time.Second,
		Results:        pool.Cache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clu.Close)
	h := NewHandler(Options{Pool: pool, Cluster: clu})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	body := `{"design":{"name":"datapath","width":8,"depth":2},"methodology":{"base":"typical-asic"},"seed":9}`
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/evaluate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardedHeader, "test-origin") // pin the compute local
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate status %d", resp.StatusCode)
	}

	// The push must actually start, or the Quiesce assertion below
	// passes vacuously.
	deadline := time.Now().Add(5 * time.Second)
	for !pushStarted.Load() {
		if time.Now().After(deadline) {
			t.Fatal("replication push never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.Quiesce()
	if !pushFinished.Load() {
		t.Fatal("Quiesce returned while the replica push was still in flight")
	}
}
