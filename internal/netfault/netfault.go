// Package netfault is a deterministic, seedable network fault layer
// for the gapd cluster. Where internal/faultinject chaos-tests the
// compute path (pool and flow-stage seams), netfault chaos-tests the
// wire: it wraps the cluster peer client's http.RoundTripper and
// injects partitions (full and asymmetric), added latency, connection
// resets, truncated bodies, and bit-corrupted responses.
//
// Determinism follows the faultinject model: a fault decision is a pure
// function of (plan seed, site key), where the site key names a
// directed (src, dst, attempt) triple — "a->b/a3" is the fourth request
// node a ever sent node b. Two runs of the same chaos test with the
// same seed draw the same faults on the same links regardless of
// goroutine interleaving. Because the site key is directional, a
// drawn partition on a->b says nothing about b->a: asymmetric
// partitions fall out of the keying for free.
//
// On top of the rate-drawn faults, an explicit directed partition table
// (Partition/PartitionBoth/Isolate/Heal/HealAll) lets scripted chaos
// scenarios cut and heal specific links mid-test, which is how the
// cluster suite partitions an owner mid-run and later heals it for
// anti-entropy repair.
package netfault

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
)

// ErrInjected marks every transport error the layer fabricates. The
// cluster client maps any transport failure onto jobs.ErrPeerUnavailable,
// so injected network faults exercise exactly the retry/fallback path a
// real flaky network would.
var ErrInjected = errors.New("netfault: injected network fault")

// Kind enumerates the faults the layer can inject on one request.
type Kind int

// Fault kinds, in drawing order (see Decide).
const (
	// None: the request proceeds untouched.
	None Kind = iota
	// Partition: the request fails before reaching the wire, as if the
	// link were down. The server never sees it.
	Partition
	// Latency: the request is delayed by Plan.Latency before being
	// sent, honouring context cancellation (a slow link, not a dead one).
	Latency
	// Reset: the request reaches the server and is fully processed, but
	// the response is torn down as if the connection reset mid-reply —
	// the work happened, the answer is lost.
	Reset
	// Truncate: the response body is cut in half on the way back.
	Truncate
	// Corrupt: one deterministic byte of the response body is bit-flipped
	// on the way back. Without digest verification this would be a wrong
	// answer served as a right one; with it, it converts to a retry.
	Corrupt
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Partition:
		return "partition"
	case Latency:
		return "latency"
	case Reset:
		return "reset"
	case Truncate:
		return "truncate"
	case Corrupt:
		return "corrupt"
	}
	return fmt.Sprintf("netfault.Kind(%d)", int(k))
}

// Plan fixes the layer's behaviour. Rates are probabilities in [0,1],
// drawn independently per site key in the declared order; they are
// effectively cumulative, so their sum should stay <= 1.
type Plan struct {
	// Seed drives every fault decision. The same seed and site keys
	// reproduce the same fault schedule.
	Seed int64

	PartitionRate float64
	LatencyRate   float64
	ResetRate     float64
	TruncateRate  float64
	CorruptRate   float64

	// Latency is the injected delay for Latency faults (default 10ms).
	Latency time.Duration

	// Match restricts injection to site keys containing the substring
	// (e.g. "->b/" corrupts everything sent to node b; "a->" everything
	// node a sends). Empty matches every site. Explicit partitions
	// ignore Match.
	Match string
}

// Injector draws network faults deterministically from a Plan, tracks
// the explicit partition table, and counts what it injected. Safe for
// concurrent use.
type Injector struct {
	plan Plan

	mu       sync.Mutex
	attempts map[string]int  // per directed link: requests sent so far
	blocked  map[string]bool // directed links cut by the partition table

	Partitions  atomic.Int64
	Latencies   atomic.Int64
	Resets      atomic.Int64
	Truncations atomic.Int64
	Corruptions atomic.Int64
}

// New builds an injector for the plan.
func New(plan Plan) *Injector {
	if plan.Latency <= 0 {
		plan.Latency = 10 * time.Millisecond
	}
	return &Injector{
		plan:     plan,
		attempts: make(map[string]int),
		blocked:  make(map[string]bool),
	}
}

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

// link names the directed src->dst edge.
func link(src, dst string) string { return src + "->" + dst }

// Partition cuts the directed link src->dst: requests from src to dst
// fail as if the link were down; dst->src is untouched (an asymmetric
// partition).
func (in *Injector) Partition(src, dst string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.blocked[link(src, dst)] = true
}

// PartitionBoth cuts both directions between a and b (a full partition
// of the pair).
func (in *Injector) PartitionBoth(a, b string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.blocked[link(a, b)] = true
	in.blocked[link(b, a)] = true
}

// Isolate cuts both directions between id and every peer in peers —
// the "owner partitioned away from the cluster" scenario.
func (in *Injector) Isolate(id string, peers ...string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, p := range peers {
		if p == id {
			continue
		}
		in.blocked[link(id, p)] = true
		in.blocked[link(p, id)] = true
	}
}

// Heal restores both directions between a and b.
func (in *Injector) Heal(a, b string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.blocked, link(a, b))
	delete(in.blocked, link(b, a))
}

// HealAll clears the explicit partition table (rate-drawn faults keep
// firing).
func (in *Injector) HealAll() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.blocked = make(map[string]bool)
}

// Blocked reports whether the directed link src->dst is explicitly cut.
func (in *Injector) Blocked(src, dst string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.blocked[link(src, dst)]
}

// nextAttempt returns the 0-based sequence number of the next request
// on the directed link.
func (in *Injector) nextAttempt(src, dst string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := in.attempts[link(src, dst)]
	in.attempts[link(src, dst)] = n + 1
	return n
}

// Decide maps a site key ("src->dst/aN") to the fault it draws. Pure:
// the same key always draws the same fault under the same plan.
func (in *Injector) Decide(key string) Kind {
	if in == nil {
		return None
	}
	if in.plan.Match != "" && !strings.Contains(key, in.plan.Match) {
		return None
	}
	u := faultinject.Uniform(in.plan.Seed, key)
	for _, step := range []struct {
		rate float64
		kind Kind
	}{
		{in.plan.PartitionRate, Partition},
		{in.plan.LatencyRate, Latency},
		{in.plan.ResetRate, Reset},
		{in.plan.TruncateRate, Truncate},
		{in.plan.CorruptRate, Corrupt},
	} {
		if u < step.rate {
			return step.kind
		}
		u -= step.rate
	}
	return None
}

// Resolver maps a request's URL host ("127.0.0.1:41234") to the peer id
// it belongs to, or "" for hosts outside the cluster (passed through
// untouched).
type Resolver func(host string) string

// HostResolver builds a Resolver from a host->id table.
func HostResolver(byHost map[string]string) Resolver {
	return func(host string) string { return byHost[host] }
}

// Transport returns an http.RoundTripper that applies the injector's
// faults to every request src sends to a resolvable peer. next is the
// real transport underneath (nil selects http.DefaultTransport).
func (in *Injector) Transport(src string, resolve Resolver, next http.RoundTripper) http.RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return &transport{src: src, resolve: resolve, next: next, in: in}
}

type transport struct {
	src     string
	resolve Resolver
	next    http.RoundTripper
	in      *Injector
}

// RoundTrip applies the link's fault, if any, around the real request.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	dst := ""
	if t.resolve != nil {
		dst = t.resolve(req.URL.Host)
	}
	if dst == "" {
		// Not a cluster peer — the fault layer only shapes peer traffic.
		return t.next.RoundTrip(req)
	}
	in := t.in
	if in.Blocked(t.src, dst) {
		in.Partitions.Add(1)
		return nil, fmt.Errorf("%w: partition %s (explicit)", ErrInjected, link(t.src, dst))
	}
	key := fmt.Sprintf("%s/a%d", link(t.src, dst), in.nextAttempt(t.src, dst))
	switch in.Decide(key) {
	case Partition:
		in.Partitions.Add(1)
		return nil, fmt.Errorf("%w: partition at %s", ErrInjected, key)
	case Latency:
		in.Latencies.Add(1)
		timer := time.NewTimer(in.plan.Latency)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		return t.next.RoundTrip(req)
	case Reset:
		// The request reaches the server and runs; the reply is lost —
		// the wire signature of a connection reset between compute and
		// response, which is what replication must survive.
		resp, err := t.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		in.Resets.Add(1)
		return nil, fmt.Errorf("%w: connection reset at %s", ErrInjected, key)
	case Truncate:
		resp, err := t.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		in.Truncations.Add(1)
		return replaceBody(resp, body[:len(body)/2]), nil
	case Corrupt:
		resp, err := t.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		if len(body) > 0 {
			// Flip one deterministic bit: offset and mask drawn from the
			// site key, so the corruption itself reproduces exactly.
			h := fnv.New64a()
			h.Write([]byte(key))
			x := h.Sum64()
			body[x%uint64(len(body))] ^= 1 << ((x >> 32) % 8)
		}
		in.Corruptions.Add(1)
		return replaceBody(resp, body), nil
	}
	return t.next.RoundTrip(req)
}

// replaceBody swaps resp's body for b, fixing the length metadata so
// the client reads exactly the shaped bytes.
func replaceBody(resp *http.Response, b []byte) *http.Response {
	resp.Body = io.NopCloser(bytes.NewReader(b))
	resp.ContentLength = int64(len(b))
	resp.Header.Del("Content-Length")
	resp.TransferEncoding = nil
	return resp
}

// Counters snapshots the injected-fault counts, keyed for logs and
// assertions.
func (in *Injector) Counters() map[string]int64 {
	return map[string]int64{
		"partitions":  in.Partitions.Load(),
		"latencies":   in.Latencies.Load(),
		"resets":      in.Resets.Load(),
		"truncations": in.Truncations.Load(),
		"corruptions": in.Corruptions.Load(),
	}
}

// ParsePlan parses the GAPD_NETFAULT environment hook format:
// comma-separated key=value pairs, e.g.
//
//	seed=7,partition=0.05,latency-rate=0.1,latency=25ms,reset=0.02,truncate=0.01,corrupt=0.01,match=->b/
//
// Unknown keys are an error so typos fail loudly instead of silently
// running a clean-network "chaos" test.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return p, fmt.Errorf("netfault: bad plan term %q (want key=value)", part)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
		case "partition":
			p.PartitionRate, err = strconv.ParseFloat(v, 64)
		case "latency-rate":
			p.LatencyRate, err = strconv.ParseFloat(v, 64)
		case "reset":
			p.ResetRate, err = strconv.ParseFloat(v, 64)
		case "truncate":
			p.TruncateRate, err = strconv.ParseFloat(v, 64)
		case "corrupt":
			p.CorruptRate, err = strconv.ParseFloat(v, 64)
		case "latency":
			p.Latency, err = time.ParseDuration(v)
		case "match":
			p.Match = v
		default:
			return p, fmt.Errorf("netfault: unknown plan key %q", k)
		}
		if err != nil {
			return p, fmt.Errorf("netfault: bad plan value %q for %q: %v", v, k, err)
		}
	}
	return p, nil
}
