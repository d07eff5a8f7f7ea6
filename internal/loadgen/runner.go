package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
)

// RunOptions configures one driver run against a live gapd.
type RunOptions struct {
	// Target is the base URL of the node under test (required).
	Target string
	// Client issues the requests; nil builds one with keep-alives and a
	// connection pool sized to the plan (persistent connections, so the
	// measurement is request cost, not handshake cost).
	Client *http.Client
	// MaxShedRetries bounds how often the closed loop re-issues one
	// arrival after 429 + Retry-After before recording a terminal shed
	// failure (default 8). The open loop never retries: dropping shed
	// work is what "open loop" means.
	MaxShedRetries int
	// RequestTimeout caps one HTTP request (default 2 minutes).
	RequestTimeout time.Duration
}

// Run executes the plan against the target and returns the SLO report.
// The request schedule is fully derived (seeded) before the first
// request is sent; the wall clock only decides *when* open-loop
// arrivals fire and what latencies are observed.
func Run(ctx context.Context, plan Plan, opt RunOptions) (*Report, error) {
	if opt.Target == "" {
		return nil, fmt.Errorf("loadgen: RunOptions.Target is required")
	}
	cp, err := plan.Canon()
	if err != nil {
		return nil, err
	}
	corpus, err := BuildCorpus(cp.Corpus)
	if err != nil {
		return nil, err
	}
	sched, err := BuildSchedule(cp, corpus)
	if err != nil {
		return nil, err
	}
	if opt.MaxShedRetries == 0 {
		opt.MaxShedRetries = 8
	}
	if opt.RequestTimeout <= 0 {
		opt.RequestTimeout = 2 * time.Minute
	}
	client := opt.Client
	if client == nil {
		conns := cp.Arrival.Concurrency
		if conns < 64 {
			conns = 64
		}
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     90 * time.Second,
		}}
	}

	// Pre-encode every corpus item's request body and endpoint once.
	bodies := make([][]byte, len(corpus.Items))
	paths := make([]string, len(corpus.Items))
	for i, it := range corpus.Items {
		b, err := json.Marshal(it.Spec)
		if err != nil {
			return nil, fmt.Errorf("loadgen: corpus item %d not marshalable: %w", i, err)
		}
		bodies[i] = b
		paths[i] = endpointFor(it.Spec.Kind)
	}

	run := &runState{
		opts:     opt,
		client:   client,
		corpus:   corpus,
		sched:    sched,
		bodies:   bodies,
		paths:    paths,
		overall:  NewLatencyHist(),
		perKind:  map[string]*sliceState{},
		perPhase: map[string]*sliceState{},
		errors:   map[string]int64{},
		servedBy: map[string]int64{},
		closed:   cp.Arrival.Process == ProcClosed,
	}

	start := now()
	var deadline time.Time
	if cp.Arrival.DurationSec > 0 && run.closed {
		deadline = start.Add(time.Duration(cp.Arrival.DurationSec * float64(time.Second)))
	}
	runCtx := ctx
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}

	if run.closed {
		run.runClosed(runCtx, cp.Arrival.Concurrency)
	} else {
		run.runOpen(runCtx, start)
	}
	elapsed := now().Sub(start)

	return run.report(cp, elapsed), nil
}

// endpointFor maps a job kind to its submit path.
func endpointFor(k jobs.Kind) string {
	switch k {
	case jobs.KindLadder:
		return "/v1/ladder"
	case jobs.KindSweep:
		return "/v1/sweep"
	default:
		return "/v1/evaluate"
	}
}

// sliceState accumulates one per-kind or per-phase cut during the run.
type sliceState struct {
	completed atomic.Int64
	failed    atomic.Int64
	shed      atomic.Int64
	hist      *LatencyHist
}

// runState is the shared mutable state of one run.
type runState struct {
	opts   RunOptions
	client *http.Client
	corpus *Corpus
	sched  *Schedule
	bodies [][]byte
	paths  []string
	closed bool

	issued    atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	skipped   atomic.Int64
	shed      atomic.Int64

	overall *LatencyHist

	mu       sync.Mutex
	perKind  map[string]*sliceState
	perPhase map[string]*sliceState
	errors   map[string]int64
	servedBy map[string]int64
}

func (r *runState) slice(m map[string]*sliceState, key string) *sliceState {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := m[key]
	if !ok {
		s = &sliceState{hist: NewLatencyHist()}
		m[key] = s
	}
	return s
}

// runOpen fires arrivals at their scheduled offsets regardless of how
// the target keeps up — offered load is the independent variable.
func (r *runState) runOpen(ctx context.Context, start time.Time) {
	var wg sync.WaitGroup
	// An open loop still needs a finite goroutine budget; 4096 in
	// flight is far past any sane target's concurrency.
	sem := make(chan struct{}, 4096)
	for i := range r.sched.Arrivals {
		a := &r.sched.Arrivals[i]
		sleepUntil(start.Add(time.Duration(a.OffsetUS)*time.Microsecond), ctx.Done())
		if ctx.Err() != nil {
			r.skipped.Add(int64(len(r.sched.Arrivals) - i))
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			r.issue(ctx, a, 0)
		}()
	}
	wg.Wait()
}

// runClosed keeps `workers` requests outstanding until the schedule (or
// the run deadline) is exhausted, honoring Retry-After on shed
// responses — throughput under backpressure is the dependent variable.
func (r *runState) runClosed(ctx context.Context, workers int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(r.sched.Arrivals) {
					return
				}
				if ctx.Err() != nil {
					r.skipped.Add(1)
					continue // drain the remaining schedule as skipped
				}
				r.issue(ctx, &r.sched.Arrivals[i], r.opts.MaxShedRetries)
			}
		}()
	}
	wg.Wait()
}

// issue sends one arrival's request and records its terminal outcome.
// shedRetries > 0 re-issues after a 429, waiting out the server's
// Retry-After hint first (the closed loop's cooperative backoff).
func (r *runState) issue(ctx context.Context, a *Arrival, shedRetries int) {
	item := r.corpus.Items[a.Item]
	kind := string(item.Spec.Kind)
	ks := r.slice(r.perKind, kind)
	ps := r.slice(r.perPhase, a.Phase)

	for attempt := 0; ; attempt++ {
		status, servedBy, latency, retryAfter, err := r.sendOnce(ctx, a)
		switch {
		case err != nil:
			class := "transport"
			if ctx.Err() != nil {
				class = "canceled"
			}
			r.fail(ks, ps, class)
			return
		case status == http.StatusOK:
			r.completed.Add(1)
			r.mu.Lock()
			r.servedBy[servedBy]++
			r.mu.Unlock()
			ks.completed.Add(1)
			ps.completed.Add(1)
			r.overall.Observe(int64(latency))
			ks.hist.Observe(int64(latency))
			ps.hist.Observe(int64(latency))
			return
		case status == http.StatusTooManyRequests:
			r.shed.Add(1)
			ks.shed.Add(1)
			ps.shed.Add(1)
			if attempt < shedRetries {
				sleepUntil(now().Add(retryAfter), ctx.Done())
				if ctx.Err() == nil {
					continue
				}
			}
			r.fail(ks, ps, "shed")
			return
		default:
			r.fail(ks, ps, classFor(status))
			return
		}
	}
}

func (r *runState) fail(ks, ps *sliceState, class string) {
	r.failed.Add(1)
	ks.failed.Add(1)
	ps.failed.Add(1)
	r.mu.Lock()
	r.errors[class]++
	r.mu.Unlock()
}

// classFor maps an HTTP status onto the report's error-taxonomy keys,
// mirroring serve.statusFor in reverse.
func classFor(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "spec"
	case http.StatusBadGateway, http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusGatewayTimeout:
		return "timeout"
	default:
		return "http_" + strconv.Itoa(status)
	}
}

// unstamped is the provenance recorded for a 200 that carries no
// X-Gapd-Served-By header (a target that does not stamp one).
const unstamped = "unstamped"

// sendOnce issues one HTTP request and reports (status, provenance,
// latency, Retry-After hint, transport error). The provenance is the
// answering node's X-Gapd-Served-By header. The latency is measured to
// the last body byte — the client-observed number, which is what an SLO
// is about.
func (r *runState) sendOnce(ctx context.Context, a *Arrival) (int, string, time.Duration, time.Duration, error) {
	rctx, cancel := context.WithTimeout(ctx, r.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost,
		r.opts.Target+r.paths[a.Item], bytes.NewReader(r.bodies[a.Item]))
	if err != nil {
		return 0, "", 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	r.issued.Add(1)
	t0 := now()
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, "", 0, 0, err
	}
	_, err = io.Copy(io.Discard, io.LimitReader(resp.Body, 16<<20))
	resp.Body.Close()
	latency := now().Sub(t0)
	if err != nil {
		return 0, "", 0, 0, err
	}
	var retryAfter time.Duration
	if resp.StatusCode == http.StatusTooManyRequests {
		retryAfter = parseRetryAfter(resp)
	}
	servedBy := resp.Header.Get(cluster.ServedByHeader)
	if servedBy == "" {
		servedBy = unstamped
	}
	return resp.StatusCode, servedBy, latency, retryAfter, nil
}

// parseRetryAfter reads the Retry-After header of a shed response:
// delta-seconds or an HTTP date, clamped to [100ms, 30s]; absent or
// malformed falls back to 1s.
func parseRetryAfter(resp *http.Response) time.Duration {
	const fallback = time.Second
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return fallback
	}
	var d time.Duration
	if secs, err := strconv.Atoi(v); err == nil {
		d = time.Duration(secs) * time.Second
	} else if t, err := http.ParseTime(v); err == nil {
		d = t.Sub(now())
	} else {
		return fallback
	}
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// report assembles the final SLO report.
func (r *runState) report(p Plan, elapsed time.Duration) *Report {
	c := RequestCounts{
		Scheduled:   int64(len(r.sched.Arrivals)),
		Issued:      r.issued.Load(),
		Completed:   r.completed.Load(),
		Failed:      r.failed.Load(),
		Skipped:     r.skipped.Load(),
		Shed:        r.shed.Load(),
		DurationSec: elapsed.Seconds(),
	}
	if c.DurationSec > 0 {
		c.OfferedRPS = float64(c.Scheduled) / c.DurationSec
		c.GoodputRPS = float64(c.Completed) / c.DurationSec
	}
	if c.Issued > 0 {
		c.ShedRate = float64(c.Shed) / float64(c.Issued)
	}
	rep := &Report{
		Schema:   ReportSchema,
		Plan:     p,
		Target:   TargetInfo{URL: r.opts.Target},
		Requests: c,
		Latency:  summarize(r.overall),
		PerKind:  map[string]*Slice{},
		PerPhase: map[string]*Slice{},
		Errors:   map[string]int64{},
	}
	r.mu.Lock()
	rep.Requests.ServedBy = make(map[string]int64, len(r.servedBy))
	for k, n := range r.servedBy {
		rep.Requests.ServedBy[k] = n
	}
	for k, s := range r.perKind {
		rep.PerKind[k] = &Slice{
			Completed: s.completed.Load(), Failed: s.failed.Load(),
			Shed: s.shed.Load(), Latency: summarize(s.hist),
		}
	}
	for k, s := range r.perPhase {
		rep.PerPhase[k] = &Slice{
			Completed: s.completed.Load(), Failed: s.failed.Load(),
			Shed: s.shed.Load(), Latency: summarize(s.hist),
		}
	}
	for k, n := range r.errors {
		rep.Errors[k] = n
	}
	r.mu.Unlock()
	if len(rep.Errors) == 0 {
		rep.Errors = nil
	}
	return rep
}
