package jobs

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics aggregates service counters: job lifecycle counts, cache
// traffic, and latency histograms per job kind and per flow stage (the
// stages of core.EvaluateCtx, fed through core.WithStageObserver). All
// methods are safe for concurrent use; a zero value is not usable — call
// NewMetrics.
type Metrics struct {
	JobsStarted   atomic.Int64
	JobsCompleted atomic.Int64
	JobsFailed    atomic.Int64
	JobsTimedOut  atomic.Int64
	JobsPanicked  atomic.Int64
	CacheHits     atomic.Int64
	CacheMisses   atomic.Int64

	// Disk-tier (CAS store) counters: a CacheMiss that resolves from
	// the store is a CASHit (no recompute); CASMisses proceed to
	// compute; CASErrors count store reads/writes that failed or
	// decoded to a mismatched envelope. CASCorruptReads count reads on
	// the serve path that hit a record failing CRC/digest verification
	// (or an address still quarantined from a scrub) — treated as a
	// miss, never served, and routed through read-repair before a
	// recompute is admitted.
	CASHits         atomic.Int64
	CASMisses       atomic.Int64
	CASErrors       atomic.Int64
	CASCorruptReads atomic.Int64

	// Fault-handling counters (watchdog, admission control, journal).
	JobsShed      atomic.Int64 // submissions rejected by load shedding (429)
	JobsAbandoned atomic.Int64 // jobs the watchdog reclaimed from wedged workers

	JournalAccepted         atomic.Int64 // accept records fsynced
	JournalStored           atomic.Int64 // stored-pointer records written
	JournalFailed           atomic.Int64 // terminal fail records written
	JournalErrors           atomic.Int64 // journal writes that failed (degraded durability)
	JournalReplayedDone     atomic.Int64 // stored results re-warmed from the store at replay
	JournalReplayedPending  atomic.Int64 // pending jobs re-executed from the journal
	JournalReplaysExhausted atomic.Int64 // poison jobs failed terminally after MaxReplayGenerations

	ReplicasStored atomic.Int64 // peer-computed results accepted by StoreResult

	mu    sync.Mutex
	hists map[string]*Histogram
}

// NewMetrics creates an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{hists: make(map[string]*Histogram)}
}

// latencyBucketsMS are the upper bounds (milliseconds) of the shared
// histogram layout; the implicit final bucket is +Inf.
var latencyBucketsMS = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

// Observe records one latency sample under the named histogram
// (e.g. "job_evaluate" or "stage_floorplan").
func (m *Metrics) Observe(name string, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	h, ok := m.hists[name]
	if !ok {
		h = newHistogram()
		m.hists[name] = h
	}
	m.mu.Unlock()
	h.Observe(float64(d) / float64(time.Millisecond))
}

// StageObserver adapts the metrics set to core.WithStageObserver.
func (m *Metrics) StageObserver() func(stage string, elapsed time.Duration) {
	return func(stage string, elapsed time.Duration) {
		m.Observe("stage_"+stage, elapsed)
	}
}

// Snapshot renders every counter and histogram as a JSON-ready tree (the
// expvar-style payload of GET /metrics).
func (m *Metrics) Snapshot() map[string]any {
	jobs := map[string]any{
		"started":   m.JobsStarted.Load(),
		"completed": m.JobsCompleted.Load(),
		"failed":    m.JobsFailed.Load(),
		"timed_out": m.JobsTimedOut.Load(),
		"panicked":  m.JobsPanicked.Load(),
		"shed":      m.JobsShed.Load(),
		"abandoned": m.JobsAbandoned.Load(),
	}
	cache := map[string]any{
		"hits":            m.CacheHits.Load(),
		"misses":          m.CacheMisses.Load(),
		"replicas_stored": m.ReplicasStored.Load(),
	}
	cas := map[string]any{
		"hits":          m.CASHits.Load(),
		"misses":        m.CASMisses.Load(),
		"errors":        m.CASErrors.Load(),
		"corrupt_reads": m.CASCorruptReads.Load(),
	}
	journal := map[string]any{
		"accepted":          m.JournalAccepted.Load(),
		"stored":            m.JournalStored.Load(),
		"failed":            m.JournalFailed.Load(),
		"errors":            m.JournalErrors.Load(),
		"replayed_done":     m.JournalReplayedDone.Load(),
		"replayed_pending":  m.JournalReplayedPending.Load(),
		"replays_exhausted": m.JournalReplaysExhausted.Load(),
	}
	m.mu.Lock()
	names := make([]string, 0, len(m.hists))
	for name := range m.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	lat := make(map[string]any, len(names))
	for _, name := range names {
		lat[name] = m.hists[name].snapshot()
	}
	m.mu.Unlock()
	return map[string]any{
		"jobs":       jobs,
		"cache":      cache,
		"cas":        cas,
		"journal":    journal,
		"latency_ms": lat,
	}
}

// Histogram is a fixed-bucket latency histogram in milliseconds.
type Histogram struct {
	mu     sync.Mutex
	counts []int64 // one per bucket bound, plus trailing +Inf bucket
	count  int64
	sumMS  float64
}

func newHistogram() *Histogram {
	return &Histogram{counts: make([]int64, len(latencyBucketsMS)+1)}
}

// Observe records one sample in milliseconds.
func (h *Histogram) Observe(ms float64) {
	i := sort.SearchFloat64s(latencyBucketsMS, ms)
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sumMS += ms
	h.mu.Unlock()
}

// snapshot renders cumulative bucket counts, Prometheus-style.
func (h *Histogram) snapshot() map[string]any {
	h.mu.Lock()
	defer h.mu.Unlock()
	buckets := make([]map[string]any, 0, len(h.counts))
	cum := int64(0)
	for i, c := range h.counts {
		cum += c
		le := "+Inf"
		if i < len(latencyBucketsMS) {
			le = strconv.FormatFloat(latencyBucketsMS[i], 'f', -1, 64)
		}
		buckets = append(buckets, map[string]any{"le": le, "count": cum})
	}
	return map[string]any{
		"count":   h.count,
		"sum_ms":  h.sumMS,
		"buckets": buckets,
	}
}
