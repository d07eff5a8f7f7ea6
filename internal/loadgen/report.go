package loadgen

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// ReportSchema versions the JSON report layout; bump it when fields
// change meaning, so BENCH_loadgen_*.json trajectories stay comparable.
const ReportSchema = "gapload/v2"

// Report is the SLO report of one run: what was offered, what was
// served, how fast, and how it failed — overall and sliced per job kind
// and per arrival-process phase. The JSON form is canonical (struct
// order plus sorted map keys), so reports diff cleanly across runs.
type Report struct {
	Schema string `json:"schema"`
	// GeneratedAt is stamped by cmd/gapload after the run (the library
	// leaves it empty: report *content* is measurement, the timestamp
	// is provenance).
	GeneratedAt string `json:"generated_at,omitempty"`
	// Plan is the canonical plan that drove the run.
	Plan Plan `json:"plan"`
	// Target identifies what was measured: URL, build, uptime, nodes.
	Target TargetInfo `json:"target"`

	Requests RequestCounts     `json:"requests"`
	Latency  LatencySummary    `json:"latency_ms"`
	PerKind  map[string]*Slice `json:"per_kind"`
	PerPhase map[string]*Slice `json:"per_phase"`
	// Errors breaks terminal failures down by taxonomy class: shed,
	// spec, unavailable, timeout, transport, http_NNN, canceled.
	Errors map[string]int64 `json:"errors,omitempty"`
}

// TargetInfo stamps the report with the server under test, read from
// its /metrics (build_info, uptime_seconds) and /v1/cluster endpoints —
// a number without the build that produced it is not evidence.
type TargetInfo struct {
	URL           string         `json:"url"`
	Build         map[string]any `json:"build_info,omitempty"`
	UptimeSeconds float64        `json:"uptime_seconds,omitempty"`
	// Nodes counts the routable members of the target's gossip view at
	// measurement time (1 for a single node).
	Nodes int `json:"nodes,omitempty"`
	// StoreMode records the target's result-store tier: "disk" when a
	// content-addressed store backs the RAM cache, "ram" otherwise. A
	// throughput number against a disk-tier server is a different
	// experiment from a RAM-only one — the hit path includes CRC and
	// digest verification per read.
	StoreMode string `json:"store_mode,omitempty"`
	// StoreSegmentBytes / StoreMaxBytes are the measured store's
	// geometry (rolling-segment size and live-byte budget; 0 = unlimited
	// budget), zero when StoreMode is "ram".
	StoreSegmentBytes int64 `json:"store_segment_bytes,omitempty"`
	StoreMaxBytes     int64 `json:"store_max_bytes,omitempty"`
}

// RequestCounts are the run's volume numbers.
type RequestCounts struct {
	// Scheduled arrivals; every one terminates as completed, failed, or
	// skipped (run ended first) — Validate enforces the partition.
	Scheduled int64 `json:"scheduled"`
	// Issued HTTP requests, including closed-loop 429 retries.
	Issued    int64 `json:"issued"`
	Completed int64 `json:"completed"`
	// ServedBy splits the completed responses by the X-Gapd-Served-By
	// provenance the answering node stamped (ram, cas, repair, join,
	// compute, forward; "unstamped" when the header was absent), so it
	// sums to Completed exactly.
	ServedBy map[string]int64 `json:"served_by"`
	Failed   int64            `json:"failed"`
	Skipped  int64            `json:"skipped"`
	// Shed counts 429 responses observed (the closed loop retries
	// them, so Shed can exceed the shed-terminal failures in Errors).
	Shed int64 `json:"shed"`

	DurationSec float64 `json:"duration_sec"`
	// OfferedRPS is scheduled arrivals over the measured duration;
	// GoodputRPS is completed responses over the same window.
	OfferedRPS float64 `json:"offered_rps"`
	GoodputRPS float64 `json:"goodput_rps"`
	// ShedRate is shed responses over issued requests.
	ShedRate float64 `json:"shed_rate"`
}

// LatencySummary is the bounded-error quantile readout of one
// histogram, in milliseconds. Quantile error ≤ 1/32 of the true value
// (see LatencyHist).
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean"`
	P50MS  float64 `json:"p50"`
	P95MS  float64 `json:"p95"`
	P99MS  float64 `json:"p99"`
	P999MS float64 `json:"p999"`
	MaxMS  float64 `json:"max"`
}

// Slice is one per-kind or per-phase cut: counts plus latency over the
// completed requests in the slice.
type Slice struct {
	Completed int64          `json:"completed"`
	Failed    int64          `json:"failed"`
	Shed      int64          `json:"shed"`
	Latency   LatencySummary `json:"latency_ms"`
}

// summarize reads a histogram into the millisecond summary.
func summarize(h *LatencyHist) LatencySummary {
	if h == nil || h.Count() == 0 {
		return LatencySummary{}
	}
	qs := h.Quantiles(0.50, 0.95, 0.99, 0.999)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	return LatencySummary{
		Count:  h.Count(),
		MeanMS: h.Mean() / 1e6,
		P50MS:  ms(qs[0]),
		P95MS:  ms(qs[1]),
		P99MS:  ms(qs[2]),
		P999MS: ms(qs[3]),
		MaxMS:  ms(h.Max()),
	}
}

// Validate checks the report's internal invariants — the contract
// `make load-smoke` asserts and every committed BENCH_loadgen_*.json
// must satisfy.
func (r *Report) Validate() error {
	if r.Schema != ReportSchema {
		return fmt.Errorf("loadgen: report schema %q, want %q", r.Schema, ReportSchema)
	}
	c := r.Requests
	if c.Scheduled != c.Completed+c.Failed+c.Skipped {
		return fmt.Errorf("loadgen: scheduled %d != completed %d + failed %d + skipped %d",
			c.Scheduled, c.Completed, c.Failed, c.Skipped)
	}
	if c.Issued < c.Completed+c.Failed {
		return fmt.Errorf("loadgen: issued %d below completed %d + failed %d (every terminal outcome was issued at least once)",
			c.Issued, c.Completed, c.Failed)
	}
	var served int64
	for _, n := range c.ServedBy {
		served += n
	}
	if served != c.Completed {
		return fmt.Errorf("loadgen: served_by counts sum to %d, completed %d", served, c.Completed)
	}
	if r.Latency.Count != c.Completed {
		return fmt.Errorf("loadgen: latency count %d != completed %d", r.Latency.Count, c.Completed)
	}
	var kindDone, kindFail int64
	for _, s := range r.PerKind {
		kindDone += s.Completed
		kindFail += s.Failed
	}
	if kindDone != c.Completed || kindFail != c.Failed {
		return fmt.Errorf("loadgen: per-kind slices (%d done, %d failed) do not sum to totals (%d, %d)",
			kindDone, kindFail, c.Completed, c.Failed)
	}
	var phaseDone int64
	for _, s := range r.PerPhase {
		phaseDone += s.Completed
	}
	if phaseDone != c.Completed {
		return fmt.Errorf("loadgen: per-phase slices (%d done) do not sum to completed %d", phaseDone, c.Completed)
	}
	var errSum int64
	for _, n := range r.Errors {
		errSum += n
	}
	if errSum != c.Failed {
		return fmt.Errorf("loadgen: error classes sum to %d, failed is %d", errSum, c.Failed)
	}
	for name, s := range map[string]LatencySummary{"overall": r.Latency} {
		if err := monotone(name, s); err != nil {
			return err
		}
	}
	for k, s := range r.PerKind {
		if err := monotone("kind "+k, s.Latency); err != nil {
			return err
		}
	}
	for k, s := range r.PerPhase {
		if err := monotone("phase "+k, s.Latency); err != nil {
			return err
		}
	}
	return nil
}

func monotone(name string, s LatencySummary) error {
	if s.P50MS > s.P95MS || s.P95MS > s.P99MS || s.P99MS > s.P999MS {
		return fmt.Errorf("loadgen: %s quantiles not monotone: p50 %.3f p95 %.3f p99 %.3f p999 %.3f",
			name, s.P50MS, s.P95MS, s.P99MS, s.P999MS)
	}
	// The max is exact while quantiles are bucket midpoints, so allow
	// the bounded bucket error before calling it inconsistent.
	if s.Count > 0 && s.P999MS > s.MaxMS*(1+1.0/16) {
		return fmt.Errorf("loadgen: %s p999 %.3f exceeds max %.3f beyond bucket error", name, s.P999MS, s.MaxMS)
	}
	return nil
}

// JSON renders the report as the canonical BENCH_loadgen_*.json bytes.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("loadgen: report not marshalable: %w", err)
	}
	return append(b, '\n'), nil
}

// Table renders the human-readable run summary.
func (r *Report) Table() string {
	var b strings.Builder
	c := r.Requests
	fmt.Fprintf(&b, "gapload %s  seed=%d  arrival=%s  corpus=%s/%d  target=%s",
		r.Schema, r.Plan.Seed, r.Plan.Arrival.Process, r.Plan.Corpus.Family, r.Plan.Corpus.Size, r.Target.URL)
	if r.Target.Nodes > 1 {
		fmt.Fprintf(&b, " (%d nodes)", r.Target.Nodes)
	}
	b.WriteString("\n\n")
	fmt.Fprintf(&b, "requests   scheduled %d   issued %d   completed %d   failed %d   skipped %d\n",
		c.Scheduled, c.Issued, c.Completed, c.Failed, c.Skipped)
	if len(c.ServedBy) > 0 {
		b.WriteString("served by ")
		for _, k := range sortedKeys(c.ServedBy) {
			fmt.Fprintf(&b, "  %s %d", k, c.ServedBy[k])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "load       duration %.2fs   offered %.1f req/s   goodput %.1f req/s   shed %d (rate %.3f)\n",
		c.DurationSec, c.OfferedRPS, c.GoodputRPS, c.Shed, c.ShedRate)
	fmt.Fprintf(&b, "latency    p50 %.2fms   p95 %.2fms   p99 %.2fms   p999 %.2fms   max %.2fms   mean %.2fms\n",
		r.Latency.P50MS, r.Latency.P95MS, r.Latency.P99MS, r.Latency.P999MS, r.Latency.MaxMS, r.Latency.MeanMS)
	writeSlices := func(title string, m map[string]*Slice) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(&b, "\n%-10s %10s %8s %6s %10s %10s %10s %10s\n",
			title, "completed", "failed", "shed", "p50 ms", "p95 ms", "p99 ms", "p999 ms")
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := m[k]
			fmt.Fprintf(&b, "%-10s %10d %8d %6d %10.2f %10.2f %10.2f %10.2f\n",
				k, s.Completed, s.Failed, s.Shed,
				s.Latency.P50MS, s.Latency.P95MS, s.Latency.P99MS, s.Latency.P999MS)
		}
	}
	writeSlices("kind", r.PerKind)
	writeSlices("phase", r.PerPhase)
	if len(r.Errors) > 0 {
		b.WriteString("\nerrors    ")
		for _, k := range sortedKeys(r.Errors) {
			fmt.Fprintf(&b, " %s=%d", k, r.Errors[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// sortedKeys returns m's keys in order, for deterministic output.
func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
