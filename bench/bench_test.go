package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestQuantileIsExactNearestRank(t *testing.T) {
	sorted := make([]time.Duration, 100)
	for i := range sorted {
		sorted[i] = time.Duration(i + 1)
	}
	for _, c := range []struct {
		num, den int
		want     time.Duration
	}{
		{1, 2, 50}, {99, 100, 99}, {1, 100, 1}, {100, 100, 100}, {999, 1000, 100},
	} {
		if got := quantile(sorted, c.num, c.den); got != c.want {
			t.Errorf("quantile(1..100, %d/%d) = %d, want %d", c.num, c.den, got, c.want)
		}
	}
	if got := quantile(sorted[:1], 99, 100); got != 1 {
		t.Errorf("quantile of one sample = %d, want 1", got)
	}
	if got := quantile(nil, 1, 2); got != 0 {
		t.Errorf("quantile of no samples = %d, want 0", got)
	}
	// 2001 samples: the p99 has exactly 20 samples above it.
	big := make([]time.Duration, 2001)
	for i := range big {
		big[i] = time.Duration(i)
	}
	if got := quantile(big, 99, 100); got != 1980 {
		t.Errorf("p99 of 0..2000 = %d, want 1980", got)
	}
}

// slowServer answers every POST after delay, or with 500 when fail says
// so, and counts what it received.
func slowServer(t *testing.T, delay time.Duration, fail func(n int64) bool) (*httptest.Server, *atomic.Int64) {
	var received atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := received.Add(1)
		time.Sleep(delay)
		if fail != nil && fail(n) {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{}`))
	}))
	t.Cleanup(srv.Close)
	return srv, &received
}

func fixedStream(int) *request { return &request{path: "/v1/evaluate", body: []byte(`{}`)} }

func TestWindowLetsInFlightRequestsFinish(t *testing.T) {
	const delay = 300 * time.Millisecond
	srv, received := slowServer(t, delay, nil)
	client := newClient(clients)
	defer client.CloseIdleConnections()
	w := drive(context.Background(), client, srv.URL, fixedStream, clients, 50*time.Millisecond)
	st := w.stats()
	// Each caller issued one request before the window closed and none
	// after; both outlived the window and count as completed.
	if st.attempted != clients || st.completed != clients || received.Load() != clients {
		t.Fatalf("attempted %d completed %d received %d, want %d each", st.attempted, st.completed, received.Load(), clients)
	}
	if w.elapsed < delay {
		t.Errorf("window elapsed %v, want it to cover the in-flight requests (>= %v)", w.elapsed, delay)
	}
	if st.p50 < delay || st.p99 < delay {
		t.Errorf("p50 %v p99 %v, want both >= %v", st.p50, st.p99, delay)
	}
	if err := verdict(st, nil); err != nil {
		t.Errorf("verdict on a window without failures: %v", err)
	}
}

func TestWindowCountsServerFailures(t *testing.T) {
	srv, received := slowServer(t, time.Millisecond, func(n int64) bool { return n%4 == 0 })
	client := newClient(clients)
	defer client.CloseIdleConnections()
	w := drive(context.Background(), client, srv.URL, fixedStream, clients, 200*time.Millisecond)
	st := w.stats()
	if int64(st.attempted) != received.Load() {
		t.Fatalf("attempted %d, server received %d", st.attempted, received.Load())
	}
	if failed := st.attempted - st.completed; failed != st.attempted/4 {
		t.Errorf("failed %d of %d, want every fourth", failed, st.attempted)
	}
	// A failed request makes the run incorrect, so it exits non-zero even
	// though the failures are left out of the latencies.
	if err := verdict(st, nil); !errors.Is(err, errIncorrect) {
		t.Errorf("verdict on a window with failures = %v, want errIncorrect", err)
	}
}

func TestRatesAreMediansOverSlices(t *testing.T) {
	const length = 2 * time.Second
	step := length / windowSlices
	open := time.Unix(1000, 0)
	w := &window{open: open}
	m := &meter{}
	var ticks int64
	for k := 0; k <= windowSlices; k++ {
		m.at = append(m.at, open.Add(time.Duration(k)*step))
		m.ticks = append(m.ticks, ticks)
		// Every slice completes 10 requests on 10 ticks of CPU, except a
		// slow one: 2 requests on 30 ticks.
		n, cost := 10, int64(10)
		if k == 3 {
			n, cost = 2, 30
		}
		for r := 0; r < n; r++ {
			end := time.Duration(k)*step + time.Duration(r+1)*step/time.Duration(n+1)
			w.samples = append(w.samples, sample{status: http.StatusOK, end: int64(end)})
		}
		// A failed request counts in neither rate.
		w.samples = append(w.samples, sample{status: http.StatusServiceUnavailable, end: int64(time.Duration(k)*step + step/2)})
		ticks += cost
	}
	goodput, cpuUS := w.rates(m, length)
	if want := 10 / step.Seconds(); goodput != want {
		t.Errorf("goodput %v, want %v", goodput, want)
	}
	if cpuUS != 1e4 {
		t.Errorf("cpu %v us/req, want 1e4 (one 10 ms tick per request)", cpuUS)
	}
	// A meter with no slice inside the window is taken whole.
	short := &meter{at: []time.Time{open.Add(-time.Second), open.Add(length + time.Second)}, ticks: []int64{0, 50}}
	w = &window{open: open, samples: []sample{{status: http.StatusOK, end: 1}, {status: http.StatusOK, end: 2}}}
	if goodput, cpuUS := w.rates(short, length); goodput != 0.5 || cpuUS != 25e4 {
		t.Errorf("whole-window rates %v req/s, %v us/req; want 0.5, 25e4", goodput, cpuUS)
	}
}

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesDriver(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, driver has %v", names, want)
	}
	same := func(kind string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, driver reports %d", kind, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), driver reports %s (%s)", kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

// TestSmoke runs the benchmark end to end against gapd built from this
// tree, with 1 s windows: every workload untraced, and hot-mixed traced.
// -short runs hot-mixed untraced only.
func TestSmoke(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("needs /proc for gapd CPU and memory accounting")
	}
	dir := t.TempDir()
	gapd, probe := filepath.Join(dir, "gapd"), filepath.Join(dir, "gapprobe")
	for _, b := range []struct{ dir, out, pkg string }{{"..", gapd, "./cmd/gapd"}, {".", probe, "./probe"}} {
		build := exec.Command("go", "build", "-o", b.out, b.pkg)
		build.Dir = b.dir
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", b.pkg, err, out)
		}
	}
	bf := readBenchmarkFile(t)
	names := []string{"hot-mixed"}
	if !testing.Short() {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	o := options{seed: 1, seconds: 1, gapd: gapd, probe: probe, work: filepath.Join(dir, "work"), setups: 1}
	for _, name := range names {
		o.workload = name
		var out bytes.Buffer
		if err := run(context.Background(), o, &out); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, out.String())
		}
		for _, m := range bf.EndToEnd {
			if !hasLine(out.String(), name, m.Name, m.Unit) {
				t.Errorf("%s: %s (%s) not printed:\n%s", name, m.Name, m.Unit, out.String())
			}
		}
		checkResultLine(t, name, out.String(), bf.EndToEnd)
	}
	if testing.Short() {
		return
	}
	o.workload, o.trace = "hot-mixed", true
	var out bytes.Buffer
	if err := run(context.Background(), o, &out); err != nil {
		t.Fatalf("traced hot-mixed: %v\n%s", err, out.String())
	}
	checkResultLine(t, "traced hot-mixed", out.String(), bf.PerLayer)
	if _, err := os.Stat(filepath.Join(o.work, "spans", "hot-mixed.spans.jsonl")); err != nil {
		t.Errorf("span file: %v", err)
	}
}

// hasLine reports whether a text line names the workload, the metric, and
// ends in its unit.
func hasLine(out, workload, metric, unit string) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == workload && f[1] == metric && f[3] == unit {
			return true
		}
	}
	return false
}

// checkResultLine checks the JSON result line that ends the output.
func checkResultLine(t *testing.T, what, out string, defs []struct{ Name, Unit string }) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v", what, err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s: correct %v attempted %d failed %d", what, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics in the result line, want %d", what, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s: result line lacks %s in %s", what, d.Name, d.Unit)
		}
	}
}
