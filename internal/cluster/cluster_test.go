// Package cluster_test drives whole in-process clusters: N httptest
// servers, each running the real serve handler over its own pool and its
// own Cluster view, wired to each other by URL. The chaos tests here are
// the sharding acceptance suite — owner killed mid-run, owner running
// slow — and assert the cluster's one invariant: whatever path a request
// takes (forwarded, hedged, fallback, local), the result is
// byte-identical to the single-node serial reference, for the fixed seed
// matrix {1, 7, 42}.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/gossip"
	"repro/internal/jobs"
	"repro/internal/serve"
)

// chaosSeeds is the same fixed seed matrix the jobs chaos suite uses.
var chaosSeeds = []int64{1, 7, 42}

// node is one in-process cluster member: the real serve handler behind a
// fault-injecting front door.
type node struct {
	id   string
	srv  *httptest.Server
	pool *jobs.Pool
	clu  *cluster.Cluster

	mu    sync.Mutex
	inner http.Handler

	// abortPosts kills the node mid-request: job submissions run to
	// completion internally, then the connection is torn down before the
	// response is written — the signature of a process killed between
	// compute and reply.
	abortPosts atomic.Bool
	// delayPosts injects ns of latency before job submissions (probes
	// are unaffected), simulating a slow-but-healthy owner.
	delayPosts atomic.Int64
	// abortedDelays counts delayed submissions abandoned because the
	// client canceled the request mid-delay — how a test observes that a
	// losing hedge leg was actually canceled, not just ignored.
	abortedDelays atomic.Int64
	// puts counts replica pushes (PUT requests) the node received.
	puts atomic.Int64
}

func (n *node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	h := n.inner
	n.mu.Unlock()
	if r.Method == http.MethodPut {
		n.puts.Add(1)
	}
	if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/") {
		if d := n.delayPosts.Load(); d > 0 {
			// Drain the body first: the server's client-disconnect watcher
			// stays unarmed while the body is unread, and the watcher is
			// what cancels r.Context() when a losing hedge straggler is
			// abandoned — without it this handler would sleep out the full
			// delay and wedge server shutdown.
			body, _ := io.ReadAll(r.Body)
			r.Body.Close()
			r.Body = io.NopCloser(bytes.NewReader(body))
			select {
			case <-time.After(time.Duration(d)):
			case <-r.Context().Done():
				n.abortedDelays.Add(1)
				return // the racing client already gave up on this node
			}
		}
		if n.abortPosts.Load() {
			h.ServeHTTP(httptest.NewRecorder(), r) // the work happens...
			panic(http.ErrAbortHandler)            // ...the answer is lost
		}
	}
	h.ServeHTTP(w, r)
}

// startCluster boots n nodes seeded with each other's URLs. Every view
// starts with every node alive and the gossip loop is never started, so
// membership moves only through passive forward reports (one torn
// forward makes the peer suspect, and routing skips it) — deterministic
// for the chaos tests; tweak overrides per-test knobs.
func startCluster(t testing.TB, n int, tweak func(*cluster.Options)) []*node {
	return startClusterPools(t, n, nil, tweak)
}

// startClusterPools is startCluster with per-node pool control: poolOpt
// builds each node's jobs.Options (nil = the default RAM-only pool).
// The store-integrity chaos tests use it to attach a disk tier to every
// node and disable the RAM cache so reads actually exercise the store.
func startClusterPools(t testing.TB, n int, poolOpt func(id string) jobs.Options, tweak func(*cluster.Options)) []*node {
	t.Helper()
	nodes := make([]*node, n)
	peers := make([]cluster.Peer, n)
	for i := range nodes {
		nd := &node{id: string(rune('a' + i))}
		nd.inner = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "booting", http.StatusServiceUnavailable)
		})
		nd.srv = httptest.NewServer(nd)
		t.Cleanup(nd.srv.Close)
		peers[i] = cluster.Peer{ID: nd.id, URL: nd.srv.URL}
		nodes[i] = nd
	}
	for _, nd := range nodes {
		// The pool exists before the cluster so its tiers can back the
		// cluster's placement sweeps and replica reads (Results).
		po := jobs.Options{Workers: 2}
		if poolOpt != nil {
			po = poolOpt(nd.id)
		}
		nd.pool = jobs.NewPool(po)
		opt := cluster.Options{
			SelfID:         nd.id,
			Peers:          peers,
			HedgeAfter:     -1, // hedging off unless the test turns it on
			RequestTimeout: 30 * time.Second,
			// The cluster-facing result set is cache ∪ store, the same
			// view gapd wires: anti-entropy and replica reads must cover
			// what the cache evicted but the store still holds.
			Results: nd.pool.StoredView(),
		}
		if tweak != nil {
			tweak(&opt)
		}
		clu, err := cluster.New(opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(clu.Close)
		nd.clu = clu
		h := serve.NewHandler(serve.Options{Pool: nd.pool, Cluster: clu})
		nd.mu.Lock()
		nd.inner = h
		nd.mu.Unlock()
	}
	return nodes
}

// byID returns the node with the given cluster ID.
func byID(t *testing.T, nodes []*node, id string) *node {
	t.Helper()
	for _, nd := range nodes {
		if nd.id == id {
			return nd
		}
	}
	t.Fatalf("no node %q", id)
	return nil
}

// otherThan returns the first node that is not the given one.
func otherThan(nodes []*node, not *node) *node {
	for _, nd := range nodes {
		if nd != not {
			return nd
		}
	}
	return nil
}

// clusterBatch is one evaluate, one full ladder, and one sweep — the
// three job kinds the acceptance criteria require — at the given seed.
func clusterBatch(seed int64) []jobs.Spec {
	design := jobs.DesignSpec{Name: "datapath", Width: 8, Depth: 2}
	return []jobs.Spec{
		{Kind: jobs.KindEvaluate, Design: design, Methodology: jobs.MethSpec{Base: "typical"}, Seed: seed},
		{Kind: jobs.KindLadder, Design: design, Seed: seed},
		{Kind: jobs.KindSweep, Design: design, Methodology: jobs.MethSpec{Base: "best-practice"},
			MaxStages: 3, Workload: "integer", Seed: seed},
	}
}

// normalizedJSON is the byte-exact comparison key: canonical envelope
// minus run-dependent fields.
func normalizedJSON(t *testing.T, res *jobs.Result) []byte {
	t.Helper()
	b, err := json.Marshal(res.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// serialReference runs every spec with no cluster, no pool, parallelism
// 1 — the single-node ground truth.
func serialReference(t *testing.T, specs []jobs.Spec) map[string][]byte {
	t.Helper()
	ref := make(map[string][]byte, len(specs))
	for _, s := range specs {
		res, err := jobs.Run(context.Background(), s, 1)
		if err != nil {
			t.Fatalf("serial reference %s: %v", s.Kind, err)
		}
		ref[res.ID] = normalizedJSON(t, res)
	}
	return ref
}

// submit POSTs the spec to the node's public endpoint and decodes the
// result, exactly as an external client would.
func submit(t *testing.T, nd *node, spec jobs.Spec) *jobs.Result {
	t.Helper()
	res, _ := submitServed(t, nd, spec)
	return res
}

// submitServed is submit also returning the answering node's
// X-Gapd-Served-By provenance.
func submitServed(t *testing.T, nd *node, spec jobs.Spec) (*jobs.Result, jobs.Provenance) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(nd.srv.URL+"/v1/"+string(spec.Kind), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res jobs.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decoding %s response: %v", spec.Kind, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s via node %s: status %d", spec.Kind, nd.id, resp.StatusCode)
	}
	return &res, jobs.Provenance(resp.Header.Get(cluster.ServedByHeader))
}

// TestChaosClusterOwnerKill is the sharding acceptance test for the
// fallback path: for every spec kind and every chaos seed, the spec's
// true owner is killed mid-run (it computes, then the connection tears
// before the reply), and a surviving node must still answer — first by
// racing down the rendezvous order, then, with the owner suspect, by
// the route-time fallback — with results byte-identical to the
// single-node serial reference.
func TestChaosClusterOwnerKill(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			specs := clusterBatch(seed)
			ref := serialReference(t, specs)

			// A fresh cluster per spec keeps the health state
			// deterministic: every spec's owner starts presumed-alive, so
			// both failure paths — race-past-torn-forward and route-time
			// fallback — are exercised every time.
			for _, spec := range specs {
				nodes := startCluster(t, 3, nil)
				owner := byID(t, nodes, nodes[0].clu.Ring().Owner(spec.Hash()))
				entry := otherThan(nodes, owner)
				owner.abortPosts.Store(true)

				// First submission: the forward to the owner tears; the
				// client races on to the next node in rendezvous order.
				res := submit(t, entry, spec)
				if got, want := normalizedJSON(t, res), ref[res.ID]; !bytes.Equal(got, want) {
					t.Errorf("%s: killed-owner result differs from serial reference\n got: %s\nwant: %s",
						spec.Kind, got, want)
				}

				// Second submission: the entry node now suspects the owner
				// and routes around it at decision time (fallback).
				res2 := submit(t, entry, spec)
				if got, want := normalizedJSON(t, res2), ref[res2.ID]; !bytes.Equal(got, want) {
					t.Errorf("%s: fallback result differs from serial reference", spec.Kind)
				}

				c := entry.clu.Metrics().Counters()
				if c["forward_errors"] < 1 {
					t.Errorf("%s: forward_errors = %d, want >= 1 (the torn forward)",
						spec.Kind, c["forward_errors"])
				}
				if c["cluster_fallback"] < 1 {
					t.Errorf("%s: cluster_fallback = %d, want >= 1 (the suspect-owner reroute)",
						spec.Kind, c["cluster_fallback"])
				}
			}
		})
	}
}

// TestChaosClusterHedged is the sharding acceptance test for the hedged
// path: the owner stays healthy but slow, the hedge timer fires, the
// next node in rendezvous order wins the race, and the answer is still
// byte-identical to the serial reference — the property determinism
// buys: a hedge can never return a different result, only an earlier
// one. The slow owner must not be suspected (slowness is not death).
func TestChaosClusterHedged(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			specs := clusterBatch(seed)
			ref := serialReference(t, specs)
			nodes := startCluster(t, 3, func(o *cluster.Options) {
				o.HedgeAfter = 10 * time.Millisecond
			})

			// The injected owner latency dwarfs any plausible compute time
			// (even under -race), so finishing well inside it proves the
			// hedge answered, not the owner.
			const ownerDelay = 10 * time.Second
			for _, spec := range specs {
				owner := byID(t, nodes, nodes[0].clu.Ring().Owner(spec.Hash()))
				entry := otherThan(nodes, owner)
				owner.delayPosts.Store(int64(ownerDelay))

				start := time.Now()
				res := submit(t, entry, spec)
				elapsed := time.Since(start)
				owner.delayPosts.Store(0)

				if got, want := normalizedJSON(t, res), ref[res.ID]; !bytes.Equal(got, want) {
					t.Errorf("%s: hedged result differs from serial reference\n got: %s\nwant: %s",
						spec.Kind, got, want)
				}
				if elapsed >= ownerDelay/2 {
					t.Errorf("%s: hedged request took %v, owner delay is %v", spec.Kind, elapsed, ownerDelay)
				}

				if m, _ := memberRecord(entry, owner.id); m.State == gossip.StateSuspect || m.State == gossip.StateDead {
					t.Errorf("%s: slow owner %s marked %s by a hedge", spec.Kind, owner.id, m.State)
				}
			}

			var hedged int64
			for _, nd := range nodes {
				hedged += nd.clu.Metrics().Counters()["cluster_hedged"]
			}
			if hedged < int64(len(specs)) {
				t.Errorf("cluster_hedged = %d, want >= %d (one hedge per slow-owner spec)",
					hedged, len(specs))
			}
		})
	}
}

// TestForwardingWarmsOwnerCache: sharding exists to concentrate each
// spec's cache entry on one node. Two submissions of the same spec
// through a non-owner must both land on the owner — the second served
// from the owner's cache, and the entry node's own cache stays empty.
func TestForwardingWarmsOwnerCache(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	spec := clusterBatch(5)[0]
	owner := byID(t, nodes, nodes[0].clu.Ring().Owner(spec.Hash()))
	entry := otherThan(nodes, owner)

	res, by := submitServed(t, entry, spec)
	if by != jobs.ServedForward {
		t.Errorf("first submission served by %q, want forward", by)
	}
	res2, by2 := submitServed(t, entry, spec)
	if by2 != jobs.ServedForward {
		t.Errorf("second submission served by %q, want forward", by2)
	}
	if hits, started := owner.pool.Metrics().CacheHits.Load(), owner.pool.Metrics().JobsStarted.Load(); hits != 1 || started != 1 {
		t.Errorf("owner cache hits %d, jobs started %d; want the second forward answered from the owner's cache", hits, started)
	}
	if res2.ID != res.ID {
		t.Errorf("ids differ: %s vs %s", res.ID, res2.ID)
	}
	if got := owner.pool.Cache().Len(); got != 1 {
		t.Errorf("owner cache entries = %d, want 1", got)
	}
	if got := entry.pool.Cache().Len(); got != 0 {
		t.Errorf("entry-node cache entries = %d, want 0 (affinity broken)", got)
	}
	if got := entry.clu.Metrics().Counters()["cluster_forwarded"]; got != 2 {
		t.Errorf("cluster_forwarded = %d, want 2", got)
	}
}

// TestForwardedLoopGuard: a request already forwarded once is served
// locally no matter who owns the spec — the one-hop guarantee that makes
// divergent health views loop-free.
func TestForwardedLoopGuard(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	spec := clusterBatch(6)[0]
	owner := byID(t, nodes, nodes[0].clu.Ring().Owner(spec.Hash()))
	entry := otherThan(nodes, owner)

	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, entry.srv.URL+"/v1/evaluate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardedHeader, "test-origin")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	c := entry.clu.Metrics().Counters()
	if c["cluster_forwarded"] != 0 || c["cluster_local"] != 1 {
		t.Errorf("forwarded=%d local=%d, want 0/1 (loop guard must serve locally)",
			c["cluster_forwarded"], c["cluster_local"])
	}
	if got := entry.pool.Cache().Len(); got != 1 {
		t.Errorf("entry-node cache entries = %d, want 1", got)
	}
	// The owner may hold the result, placed there after the compute;
	// what it must not have done is serve or run the request.
	if got := owner.clu.Metrics().Counters()["cluster_local"]; got != 0 {
		t.Errorf("owner served %d requests, want 0 (request must not hop again)", got)
	}
	if got := owner.pool.Metrics().JobsStarted.Load(); got != 0 {
		t.Errorf("owner started %d jobs, want 0 (request must not hop again)", got)
	}
}

// TestBadSpecVerdictRelayed: a peer that runs a forwarded job and finds
// the spec invalid produces a terminal verdict; the entry node must
// relay the 400 instead of retrying it around the ring (determinism
// makes the verdict the same everywhere).
func TestBadSpecVerdictRelayed(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	// Valid at decode time on the entry node, rejected at resolve time
	// inside the owner's pool: best-practice has no domino cells.
	frac := 0.5
	spec := jobs.Spec{
		Kind:        jobs.KindEvaluate,
		Design:      jobs.DesignSpec{Name: "cla"},
		Methodology: jobs.MethSpec{Base: "best-practice", DominoFrac: &frac},
	}
	// Find an entry node that does not own the spec so the request is
	// actually forwarded.
	owner := byID(t, nodes, nodes[0].clu.Ring().Owner(spec.Hash()))
	entry := otherThan(nodes, owner)

	body, _ := json.Marshal(spec)
	resp, err := http.Post(entry.srv.URL+"/v1/evaluate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 relayed from the owner", resp.StatusCode)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
		t.Fatalf("error envelope: %v %v", e, err)
	}
	if got := entry.clu.Metrics().Counters()["forward_errors"]; got != 0 {
		t.Errorf("forward_errors = %d, want 0 (terminal verdict is not an availability failure)", got)
	}
}

// TestMembershipProbes drives the running gossip loop: a peer whose
// server is gone fails its probes, is suspected, and is declared dead
// when the suspicion window closes; a dead owner's keys then route to
// the survivor.
func TestMembershipProbes(t *testing.T) {
	nodes := startCluster(t, 2, func(o *cluster.Options) {
		o.Gossip.Interval = 10 * time.Millisecond
		o.Gossip.ProbeTimeout = 250 * time.Millisecond
	})
	a, b := nodes[0], nodes[1]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a.clu.Start(ctx)

	waitMemberState(t, a, b.id, gossip.StateAlive)
	b.srv.Close()
	waitMemberState(t, a, b.id, gossip.StateDead)

	// Every key b owned now routes to a, locally, flagged as fallback.
	remapped := false
	for _, spec := range clusterBatch(9) {
		rt := a.clu.Route(spec.Hash())
		if !rt.Local {
			t.Errorf("%s: route with sole survivor not local: %+v", spec.Kind, rt)
		}
		if nodes[1].clu.Ring().Owner(spec.Hash()) == b.id {
			remapped = true
			if rt.Owner != a.id {
				t.Errorf("%s: dead owner's key still owned by %s", spec.Kind, rt.Owner)
			}
		}
	}
	if !remapped {
		t.Skip("no batch key owned by the dead peer; ownership test covers remapping")
	}
}

// TestSuspectOwnerRoutedAround pins what one failed forward does: the
// owner becomes suspect but keeps its ring slot (the ring generation
// does not move), Route skips it as a fallback, and one piece of direct
// evidence that it is alive — here a gossip exchange it sends — makes
// it the forward target again.
func TestSuspectOwnerRoutedAround(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	spec := clusterBatch(21)[0]
	hash := spec.Hash()
	owner := byID(t, nodes, nodes[0].clu.Ring().Owner(hash))
	entry := otherThan(nodes, owner)
	genBefore := entry.clu.Status().RingGen

	owner.abortPosts.Store(true)
	submit(t, entry, spec) // the forward to the owner tears
	owner.abortPosts.Store(false)

	if m, _ := memberRecord(entry, owner.id); m.State != gossip.StateSuspect {
		t.Fatalf("owner after a failed forward: %+v, want suspect", m.Member)
	}
	if gen := entry.clu.Status().RingGen; gen != genBefore {
		t.Errorf("ring generation moved %d -> %d on suspicion", genBefore, gen)
	}
	rt := entry.clu.Route(hash)
	if rt.Owner != owner.id || !rt.Fallback {
		t.Errorf("route with a suspect owner = %+v, want owner %s with fallback", rt, owner.id)
	}
	for _, p := range rt.Targets {
		if p.ID == owner.id {
			t.Errorf("suspect owner still a forward target: %+v", rt)
		}
	}

	ack, err := json.Marshal(cluster.GossipMsg{From: owner.id})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(entry.srv.URL+cluster.GossipPath, "application/json", bytes.NewReader(ack))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rt = entry.clu.Route(hash)
	if rt.Fallback || rt.Local || len(rt.Targets) == 0 || rt.Targets[0].ID != owner.id {
		t.Errorf("route after the owner was heard alive = %+v, want a forward to %s", rt, owner.id)
	}
}

// TestClusterEndpoints: GET /v1/cluster and the cluster block of
// GET /metrics expose membership, ownership balance, and the routing
// counters; GET /v1/version names the node.
func TestClusterEndpoints(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	spec := clusterBatch(11)[0]
	owner := byID(t, nodes, nodes[0].clu.Ring().Owner(spec.Hash()))
	entry := otherThan(nodes, owner)
	submit(t, entry, spec) // one forwarded request so counters move

	var st struct {
		Self         string  `json:"self"`
		HedgeAfterMS float64 `json:"hedge_after_ms"`
		Members      []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"members"`
		Ownership struct {
			Sample int                `json:"sample"`
			Shares map[string]float64 `json:"shares"`
		} `json:"ownership"`
		Counters map[string]int64 `json:"counters"`
	}
	resp, err := http.Get(entry.srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Self != entry.id || len(st.Members) != 3 {
		t.Errorf("cluster status self=%q members=%d", st.Self, len(st.Members))
	}
	total := 0.0
	for _, s := range st.Ownership.Shares {
		total += s
	}
	if total < 0.99 || total > 1.01 {
		t.Errorf("ownership shares sum to %.3f", total)
	}
	if st.Counters["cluster_forwarded"] != 1 {
		t.Errorf("counters = %v, want one forward", st.Counters)
	}

	var metrics struct {
		Cluster map[string]json.RawMessage `json:"cluster"`
	}
	resp, err = http.Get(entry.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, key := range []string{"cluster_forwarded", "cluster_local", "cluster_hedged",
		"cluster_fallback", "forward_errors", "peers"} {
		if _, ok := metrics.Cluster[key]; !ok {
			t.Errorf("metrics cluster block missing %s", key)
		}
	}

	var v map[string]any
	resp, err = http.Get(entry.srv.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v["node"] != entry.id {
		t.Errorf("version node = %v, want %s", v["node"], entry.id)
	}
	if v["go"] == "" || v["version"] == "" {
		t.Errorf("version payload incomplete: %v", v)
	}
}
