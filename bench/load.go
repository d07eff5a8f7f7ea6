package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
)

// request is one POST the driver can issue.
type request struct {
	path string
	body []byte
	spec jobs.Spec // canonical
	hash string
	// peer reports that a node other than the entry node owns the spec
	// (cluster3-mixed only), so the entry node forwards it.
	peer bool
}

// stream returns the i-th request of a workload's schedule; it is a pure
// function of the seed and i.
type stream func(i int) *request

// sample is one request issued inside the window.
type sample struct {
	req        int   // schedule index
	status     int   // HTTP status; 0 for a transport error
	start, end int64 // ns since the window opened
}

// window is what one measured window recorded.
type window struct {
	samples []sample
	open    time.Time
	elapsed time.Duration // open to the last in-flight request finishing
}

// newClient returns an HTTP client with one keep-alive connection per
// closed-loop caller.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// drive runs a closed loop of `clients` callers issuing next(0),
// next(1), ... at base until length has passed. When the window closes
// no new request is issued, but requests already in flight run to
// completion and are counted: the driver never cancels a request of its
// own, so a closing window cannot turn into failures.
func drive(ctx context.Context, client *http.Client, base string, next stream, clients int, length time.Duration) *window {
	open := time.Now()
	var seq atomic.Int64
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(open) < length {
				i := int(seq.Add(1) - 1)
				r := next(i)
				s := sample{req: i, start: int64(time.Since(open))}
				s.status = post(ctx, client, base, r)
				s.end = int64(time.Since(open))
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	w := &window{open: open, elapsed: time.Since(open)}
	for _, p := range per {
		w.samples = append(w.samples, p...)
	}
	sort.Slice(w.samples, func(a, b int) bool { return w.samples[a].req < w.samples[b].req })
	return w
}

// post sends one request and reads its body to the last byte; it returns
// the HTTP status, or 0 on a transport error.
func post(ctx context.Context, client *http.Client, base string, r *request) int {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0
	}
	return resp.StatusCode
}

// stats summarizes the window's requests.
type stats struct {
	attempted, completed int
	p50, p99, mean       time.Duration
}

func (w *window) stats() stats {
	lat := w.latencies(func(sample) bool { return true })
	st := stats{attempted: len(w.samples), completed: len(lat)}
	st.p50 = quantile(lat, 1, 2)
	st.p99 = quantile(lat, 99, 100)
	st.mean = mean(lat)
	return st
}

// windowSlices is how many equal slices of the window the rate metrics
// are taken over.
const windowSlices = 20

// rates returns goodput (requests answered 200 per second) and gapd CPU
// time per such request, in µs, each as the median over slices of the
// window of the given length. The slices run between meter samples
// about length/windowSlices apart, and a request counts in the slice in
// which it completed. A shared host slows down in bursts of a few
// seconds; a median over slices passes over them where a mean over the
// window would not. A window too short to slice is taken whole.
func (w *window) rates(m *meter, length time.Duration) (goodput, cpuUS float64) {
	var ends []int64
	for _, s := range w.samples {
		if s.status == http.StatusOK {
			ends = append(ends, s.end)
		}
	}
	sort.Slice(ends, func(a, b int) bool { return ends[a] < ends[b] })
	completed := func(from, to time.Time) int {
		a, b := int64(from.Sub(w.open)), int64(to.Sub(w.open))
		return sort.Search(len(ends), func(i int) bool { return ends[i] >= b }) -
			sort.Search(len(ends), func(i int) bool { return ends[i] >= a })
	}
	var rps, cpu []float64
	slice := func(i, j int) {
		n := completed(m.at[i], m.at[j])
		rps = append(rps, float64(n)/m.at[j].Sub(m.at[i]).Seconds())
		if n > 0 {
			cpu = append(cpu, float64(m.ticks[j]-m.ticks[i])*1e4/float64(n)) // 100 ticks per second
		}
	}
	closes := w.open.Add(length)
	i := -1
	for j, at := range m.at {
		switch {
		case at.Before(w.open) || at.After(closes):
		case i < 0:
			i = j
		case at.Sub(m.at[i]) >= length/windowSlices:
			slice(i, j)
			i = j
		}
	}
	if len(rps) == 0 && len(m.at) > 1 {
		slice(0, len(m.at)-1)
	}
	return median(rps), median(cpu)
}

// latencies returns the sorted latencies of the successful samples keep
// selects.
func (w *window) latencies(keep func(sample) bool) []time.Duration {
	var lat []time.Duration
	for _, s := range w.samples {
		if s.status == http.StatusOK && keep(s) {
			lat = append(lat, time.Duration(s.end-s.start))
		}
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	return lat
}

// quantile returns the exact num/den quantile of sorted by the
// nearest-rank rule: the smallest sample with at least num/den of all
// samples at or below it. Integer arithmetic keeps the rank exact.
func quantile(sorted []time.Duration, num, den int) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := (num*n + den - 1) / den
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func mean(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return sum / time.Duration(len(d))
}
