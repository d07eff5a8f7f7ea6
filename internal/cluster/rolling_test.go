// Rolling-restart and dynamic-membership chaos suite. Where
// cluster_test.go drives seeded, never-started clusters through
// owner-kill and slow-owner chaos, this file drives running gossip
// clusters through the full membership lifecycle — join, suspicion, refutation, drain,
// departure, rejoin — and asserts the headline invariant of dynamic
// membership: a rolling restart of every node in the cluster loses
// zero completed results, answers stay byte-identical to the serial
// reference, and handed-off addresses are never recomputed (the
// JobsStarted total across every pool incarnation is the oracle).
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/gossip"
	"repro/internal/jobs"
	"repro/internal/loadgen"
	"repro/internal/netfault"
	"repro/internal/serve"
)

// gossipSeedFor derives a per-node protocol seed from the node ID:
// every node shuffles its probe order differently but reproducibly.
func gossipSeedFor(id string) int64 { return int64(id[0]) }

// newGossipNode allocates a node shell and its listener. The URL must
// exist before any cluster references it (as a seed contact or a
// netfault host-table entry), so shell creation is split from boot.
func newGossipNode(t testing.TB, id string) *node {
	t.Helper()
	nd := &node{id: id}
	nd.inner = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "booting", http.StatusServiceUnavailable)
	})
	nd.srv = httptest.NewServer(nd)
	t.Cleanup(nd.srv.Close)
	return nd
}

// bootGossipNode builds the pool, cluster, and serve handler for a
// shell and starts the protocol loop. seeds are the join contacts (self
// entries are filtered by the cluster). The gossip interval is short
// (15ms) so membership converges in test time.
func bootGossipNode(t testing.TB, nd *node, seeds []cluster.Peer, popt jobs.Options, tweak func(*cluster.Options)) {
	t.Helper()
	if popt.Workers == 0 {
		popt.Workers = 2
	}
	nd.pool = jobs.NewPool(popt)
	opt := cluster.Options{
		SelfID:         nd.id,
		Peers:          seeds,
		HedgeAfter:     -1,
		RequestTimeout: 30 * time.Second,
		Replicas:       2,
		Results:        nd.pool.Cache(),
		Gossip: cluster.GossipOptions{
			SelfURL:      nd.srv.URL,
			Seed:         gossipSeedFor(nd.id),
			Interval:     15 * time.Millisecond,
			ProbeTimeout: 500 * time.Millisecond,
		},
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
	clu.Start(context.Background())
}

// startGossipCluster boots len(ids) nodes that all seed off each other.
func startGossipCluster(t testing.TB, ids []string, tweak func(id string, o *cluster.Options)) []*node {
	t.Helper()
	nodes := make([]*node, len(ids))
	seeds := make([]cluster.Peer, len(ids))
	for i, id := range ids {
		nodes[i] = newGossipNode(t, id)
		seeds[i] = cluster.Peer{ID: id, URL: nodes[i].srv.URL}
	}
	for _, nd := range nodes {
		var tw func(*cluster.Options)
		if tweak != nil {
			id := nd.id
			tw = func(o *cluster.Options) { tweak(id, o) }
		}
		bootGossipNode(t, nd, seeds, jobs.Options{}, tw)
	}
	return nodes
}

// aliveSet returns the sorted IDs a node's view holds as alive.
func aliveSet(nd *node) []string {
	var ids []string
	for _, m := range nd.clu.Status().Members {
		if m.State == gossip.StateAlive {
			ids = append(ids, m.ID)
		}
	}
	sort.Strings(ids)
	return ids
}

// waitAlive blocks until every listed node's alive set is exactly want.
func waitAlive(t *testing.T, nodes []*node, want ...string) {
	t.Helper()
	sort.Strings(want)
	deadline := time.Now().Add(20 * time.Second)
	for {
		converged := true
		for _, nd := range nodes {
			if !slices.Equal(aliveSet(nd), want) {
				converged = false
				break
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			for _, nd := range nodes {
				t.Logf("node %s sees alive %v", nd.id, aliveSet(nd))
			}
			t.Fatalf("cluster never converged on alive set %v", want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// memberRecord returns nd's view of member id.
func memberRecord(nd *node, id string) (gossip.MemberStatus, bool) {
	for _, m := range nd.clu.Status().Members {
		if m.ID == id {
			return m, true
		}
	}
	return gossip.MemberStatus{}, false
}

// waitMemberState blocks until nd's view holds member id in state want.
func waitMemberState(t *testing.T, nd *node, id string, want gossip.State) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if m, ok := memberRecord(nd, id); ok && m.State == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	m, _ := memberRecord(nd, id)
	t.Fatalf("node %s never saw %s reach state %q (stuck at %+v)", nd.id, id, want, m.Member)
}

// corpusSpecs draws the rolling-restart workload from the gapload
// scenario corpus — the same seeded spec generator the load harness
// uses — so the chaos suite exercises the mix of job shapes a real
// campaign would.
func corpusSpecs(t *testing.T, size int) []jobs.Spec {
	t.Helper()
	c, err := loadgen.BuildCorpus(loadgen.CorpusSpec{Family: "mixed", Size: size, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]jobs.Spec, len(c.Items))
	for i, it := range c.Items {
		specs[i] = it.Spec
	}
	return specs
}

// startedTotal sums compute starts across every pool incarnation —
// the recompute oracle: cache hits, forwards, and replica fetches all
// leave it untouched.
func startedTotal(pools []*jobs.Pool) int64 {
	var n int64
	for _, p := range pools {
		n += p.Metrics().JobsStarted.Load()
	}
	return n
}

// postSpec submits a spec with full control over the forwarded header
// and returns the raw response (body drained and closed).
func postSpec(t *testing.T, nd *node, spec jobs.Spec, forwarded bool) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, nd.srv.URL+"/v1/"+string(spec.Kind), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if forwarded {
		req.Header.Set(cluster.ForwardedHeader, "test-origin")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// drainNode POSTs /v1/drain?wait=1 and requires a clean 200: every held
// result placed at its new home before the call returns — the guarantee
// the zero-loss asserts lean on.
func drainNode(t *testing.T, nd *node) int {
	t.Helper()
	resp, err := http.Post(nd.srv.URL+"/v1/drain?wait=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Status   string `json:"status"`
		Migrated int    `json:"migrated"`
		Error    string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding drain response from %s: %v", nd.id, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain %s: status %d, body %+v", nd.id, resp.StatusCode, out)
	}
	return out.Migrated
}

// TestChaosRollingRestart is the acceptance test for dynamic
// membership: a 5-node gossip cluster answers a seeded gapload corpus,
// then every node in turn is drained (handoff must run clean), killed,
// and rejoined under the same ID with a cold cache at a new URL. After
// every step the full corpus is re-answered through the survivors —
// and through the rejoined node — byte-identical to the serial
// reference with zero recomputes: every answer after the initial pass
// comes from a cache, a forward, or a replica fetch, never from
// running the job again.
func TestChaosRollingRestart(t *testing.T) {
	specs := corpusSpecs(t, 8)
	ref := serialReference(t, specs)

	ids := []string{"a", "b", "c", "d", "e"}
	nodes := make(map[string]*node, len(ids))
	var pools []*jobs.Pool      // every pool incarnation, dead or alive
	var clus []*cluster.Cluster // every cluster incarnation, for metrics
	seeds := make([]cluster.Peer, 0, len(ids))
	for _, id := range ids {
		nd := newGossipNode(t, id)
		seeds = append(seeds, cluster.Peer{ID: id, URL: nd.srv.URL})
		nodes[id] = nd
	}
	current := func() []*node {
		out := make([]*node, 0, len(ids))
		for _, id := range ids {
			out = append(out, nodes[id])
		}
		return out
	}
	for _, id := range ids {
		bootGossipNode(t, nodes[id], seeds, jobs.Options{}, nil)
		pools = append(pools, nodes[id].pool)
		clus = append(clus, nodes[id].clu)
	}
	waitAlive(t, current(), ids...)

	// Initial pass: every spec computed exactly once somewhere.
	for i, spec := range specs {
		entry := nodes[ids[i%len(ids)]]
		res := submit(t, entry, spec)
		if got, want := normalizedJSON(t, res), ref[res.ID]; !bytes.Equal(got, want) {
			t.Fatalf("initial pass %d: result differs from serial reference\n got: %s\nwant: %s", i, got, want)
		}
	}
	if got, want := startedTotal(pools), int64(len(ref)); got != want {
		t.Fatalf("initial pass computed %d jobs, want %d", got, want)
	}

	totalMigrated := 0
	for _, id := range ids {
		nd := nodes[id]

		// Drain: must return clean, meaning every result nd held now
		// lives at its post-drain rendezvous rank. The drain's own
		// reported count can be zero when the background sweep (queued
		// by the ring rebuild the drain itself caused) wins the race to
		// push — cluster_handoff_migrated counts both, so the final
		// assert reads the metric, not this return.
		totalMigrated += drainNode(t, nd)
		resp, err := http.Get(nd.srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("roll %s: draining healthz status %d, want 503", id, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("roll %s: draining healthz missing Retry-After", id)
		}

		// Kill: the process is gone; survivors already re-ranked at the
		// drain announcement, so nothing routes here.
		nd.srv.Close()
		nd.clu.Close()
		survivors := make([]*node, 0, len(ids)-1)
		wantAlive := make([]string, 0, len(ids)-1)
		for _, sid := range ids {
			if sid != id {
				survivors = append(survivors, nodes[sid])
				wantAlive = append(wantAlive, sid)
			}
		}
		waitAlive(t, survivors, wantAlive...)

		// Zero loss with the node down: the survivors answer the full
		// corpus byte-identically without recomputing anything — the
		// drained node's results were migrated, not lost.
		before := startedTotal(pools)
		for j, spec := range specs {
			entry := survivors[j%len(survivors)]
			res := submit(t, entry, spec)
			if got, want := normalizedJSON(t, res), ref[res.ID]; !bytes.Equal(got, want) {
				t.Fatalf("roll %s: survivor answer differs from serial reference\n got: %s\nwant: %s", id, got, want)
			}
		}
		if got := startedTotal(pools); got != before {
			t.Errorf("roll %s: survivors recomputed %d handed-off jobs, want 0", id, got-before)
		}

		// Rejoin: same ID, cold cache, new URL, one live seed. The old
		// departure record forces the incarnation bump past it.
		nd2 := newGossipNode(t, id)
		bootGossipNode(t, nd2, []cluster.Peer{{ID: survivors[0].id, URL: survivors[0].srv.URL}}, jobs.Options{}, nil)
		nodes[id] = nd2
		pools = append(pools, nd2.pool)
		clus = append(clus, nd2.clu)
		waitAlive(t, current(), ids...)

		// Zero recompute through the rejoined node: addresses it now
		// owns again are served by replica fetch, not by running jobs.
		before = startedTotal(pools)
		for _, spec := range specs {
			res := submit(t, nd2, spec)
			if got, want := normalizedJSON(t, res), ref[res.ID]; !bytes.Equal(got, want) {
				t.Fatalf("roll %s: rejoined answer differs from serial reference\n got: %s\nwant: %s", id, got, want)
			}
		}
		if got := startedTotal(pools); got != before {
			t.Errorf("roll %s: rejoined node caused %d recomputes, want 0", id, got-before)
		}
	}

	// The whole rolling restart computed nothing beyond the initial
	// pass, and the machinery that made that possible actually ran.
	if got, want := startedTotal(pools), int64(len(ref)); got != want {
		t.Errorf("total computes across the rolling restart = %d, want %d (zero recompute)", got, want)
	}
	var migrated, rounds int64
	for _, c := range clus {
		cnt := c.Metrics().Counters()
		migrated += cnt["cluster_handoff_migrated"]
		rounds += cnt["cluster_gossip_rounds"]
	}
	if migrated == 0 {
		t.Error("cluster_handoff_migrated = 0 across all nodes, want > 0")
	}
	t.Logf("rolling restart: %d results migrated (drain-reported %d), %d gossip rounds", migrated, totalMigrated, rounds)
	if rounds == 0 {
		t.Error("cluster_gossip_rounds = 0 across all nodes, want > 0")
	}
}

// TestGossipDrainShedsNewWorkWhileFinishing is the drain-mode
// regression test: once a node announces a drain, (1) jobs already in
// flight run to completion and their results migrate, (2) no new
// compute is admitted — an uncached local request gets 503 with
// Retry-After, (3) fresh work entering through the draining node is
// shed to the next rendezvous rank, and (4) cached results stay
// readable throughout.
func TestGossipDrainShedsNewWorkWhileFinishing(t *testing.T) {
	a := newGossipNode(t, "a")
	b := newGossipNode(t, "b")
	seeds := []cluster.Peer{{ID: "a", URL: a.srv.URL}, {ID: "b", URL: b.srv.URL}}
	// Node a computes slowly — every fault site sleeps 200ms — so a job
	// is still genuinely in flight when the drain lands.
	bootGossipNode(t, a, seeds, jobs.Options{
		Injector: faultinject.New(faultinject.Plan{Seed: 1, LatencyRate: 1, Latency: 200 * time.Millisecond}),
	}, nil)
	bootGossipNode(t, b, seeds, jobs.Options{}, nil)
	waitAlive(t, []*node{a, b}, "a", "b")

	inflight := clusterBatch(3)[0]
	shedded := clusterBatch(4)[0]
	fresh := clusterBatch(5)[0]
	ref := serialReference(t, []jobs.Spec{inflight, shedded, fresh})

	// Start the in-flight job on a (the forwarded header pins it local).
	type reply struct {
		status int
		body   []byte
	}
	inflightC := make(chan reply, 1)
	go func() {
		resp, raw := postSpec(t, a, inflight, true)
		inflightC <- reply{resp.StatusCode, raw}
	}()
	time.Sleep(100 * time.Millisecond) // admitted and inside the pool by now

	if migrated := drainNode(t, a); migrated != 0 {
		t.Logf("drain migrated %d results before the in-flight job finished", migrated)
	}

	// (2) No new admissions: an uncached local request is refused.
	resp, _ := postSpec(t, a, shedded, true)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("uncached submission to draining node: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain refusal missing Retry-After")
	}

	// /healthz reports the drain with a Retry-After hint.
	hresp, err := http.Get(a.srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hraw, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status %d, want 503", hresp.StatusCode)
	}
	if hresp.Header.Get("Retry-After") == "" {
		t.Error("draining healthz missing Retry-After")
	}
	if !strings.Contains(string(hraw), `"draining"`) {
		t.Errorf("draining healthz body %s, want status draining", hraw)
	}

	// (1) The in-flight job finishes and answers correctly.
	rep := <-inflightC
	if rep.status != http.StatusOK {
		t.Fatalf("in-flight job on draining node: status %d, body %s", rep.status, rep.body)
	}
	var inflightRes jobs.Result
	if err := json.Unmarshal(rep.body, &inflightRes); err != nil {
		t.Fatal(err)
	}
	if got, want := normalizedJSON(t, &inflightRes), ref[inflightRes.ID]; !bytes.Equal(got, want) {
		t.Errorf("in-flight result differs from serial reference\n got: %s\nwant: %s", got, want)
	}

	// (3) Fresh work through the draining node is shed to the next
	// rendezvous rank — b computes it, a does not.
	resp, raw := postSpec(t, a, fresh, false)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh submission via draining node: status %d, body %s", resp.StatusCode, raw)
	}
	var freshRes jobs.Result
	if err := json.Unmarshal(raw, &freshRes); err != nil {
		t.Fatal(err)
	}
	if got, want := normalizedJSON(t, &freshRes), ref[freshRes.ID]; !bytes.Equal(got, want) {
		t.Errorf("shed result differs from serial reference\n got: %s\nwant: %s", got, want)
	}
	if got := b.pool.Metrics().JobsStarted.Load(); got < 1 {
		t.Errorf("peer JobsStarted = %d, want >= 1 (the shed job)", got)
	}
	if got := a.pool.Metrics().JobsStarted.Load(); got != 1 {
		t.Errorf("draining node JobsStarted = %d, want exactly 1 (the in-flight job)", got)
	}

	// The result completed during the drain migrates to its new home.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := b.pool.Cache().Get(inflightRes.ID); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("result completed during drain never migrated to the surviving node")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// (4) The migrated result stays readable through the draining node:
	// forwarded to b, answered from b's replica, byte-identical.
	resp, raw = postSpec(t, a, inflight, false)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-read of migrated result: status %d, body %s", resp.StatusCode, raw)
	}
	var reread jobs.Result
	if err := json.Unmarshal(raw, &reread); err != nil {
		t.Fatal(err)
	}
	if got, want := normalizedJSON(t, &reread), ref[inflightRes.ID]; !bytes.Equal(got, want) {
		t.Errorf("re-read after migration differs from serial reference\n got: %s\nwant: %s", got, want)
	}
}

// TestGossipSuspectRefutation drives the SWIM refutation cycle over
// real HTTP with a scripted partition: an isolated node is suspected
// (but not evicted — suspects keep their ring slot), and on
// heal it refutes the suspicion by bumping its own incarnation, which
// propagates and restores it to alive everywhere without the ring ever
// having re-ranked.
func TestGossipSuspectRefutation(t *testing.T) {
	ids := []string{"a", "b", "c"}
	inj := netfault.New(netfault.Plan{})
	hosts := make(map[string]string, len(ids))
	nodes := make([]*node, len(ids))
	seeds := make([]cluster.Peer, len(ids))
	for i, id := range ids {
		nodes[i] = newGossipNode(t, id)
		hosts[strings.TrimPrefix(nodes[i].srv.URL, "http://")] = id
		seeds[i] = cluster.Peer{ID: id, URL: nodes[i].srv.URL}
	}
	resolve := netfault.HostResolver(hosts)
	for _, nd := range nodes {
		id := nd.id
		bootGossipNode(t, nd, seeds, jobs.Options{}, func(o *cluster.Options) {
			// The suspicion window is effectively infinite: this test is
			// about refutation, and a suspect expiring to dead mid-test
			// would change the ring and muddy the ring-stability assert.
			o.Gossip.SuspectRounds = 1 << 20
			o.WrapTransport = func(rt http.RoundTripper) http.RoundTripper {
				return inj.Transport(id, resolve, rt)
			}
		})
	}
	a, b := nodes[0], nodes[1]
	waitAlive(t, nodes, ids...)
	genBefore := a.clu.Status().RingGen

	// Cut b off completely: direct probes and ping-req relays both fail,
	// so a and c suspect it.
	inj.Isolate("b", "a", "c")
	waitMemberState(t, a, "b", gossip.StateSuspect)

	// Suspicion must not re-rank the ring.
	if gen := a.clu.Status().RingGen; gen != genBefore {
		t.Errorf("ring generation moved %d -> %d on suspicion; suspects must stay in the ring", genBefore, gen)
	}
	if got := a.clu.Metrics().Counters()["cluster_suspected"]; got < 1 {
		t.Errorf("cluster_suspected = %d on the observer, want >= 1", got)
	}

	// Heal only the inbound half: a and c can reach b (and carry their
	// suspicion records to it), but b's own probes stay dead. The only
	// way b can come back alive everywhere is the SWIM refutation — a
	// bump of its own incarnation past the suspicion.
	inj.HealAll()
	inj.Partition("b", "a")
	inj.Partition("b", "c")
	deadline := time.Now().Add(20 * time.Second)
	for {
		if m, ok := memberRecord(a, "b"); ok && m.State == gossip.StateAlive && m.Incarnation >= 1 {
			break
		}
		if time.Now().After(deadline) {
			m, _ := memberRecord(a, "b")
			t.Fatalf("b never refuted its suspicion; a's record: %+v", m.Member)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := b.clu.Metrics().Counters()["cluster_refutations"]; got < 1 {
		t.Errorf("cluster_refutations = %d on the refuting node, want >= 1", got)
	}

	inj.HealAll()
	waitAlive(t, nodes, ids...)
}

// TestGossipJoinDuringPartition: a new node joins through one seed
// while a link between two existing members is cut. Indirect ping-req
// probes keep the unreachable-but-healthy member alive (one broken
// link must not condemn a node), the join disseminates around the cut,
// and requests entering through the partitioned node still answer
// byte-identically by routing around the dead link.
func TestGossipJoinDuringPartition(t *testing.T) {
	inj := netfault.New(netfault.Plan{})
	hosts := make(map[string]string, 4)
	shells := make(map[string]*node, 4)
	for _, id := range []string{"a", "b", "c", "d"} {
		shells[id] = newGossipNode(t, id)
		hosts[strings.TrimPrefix(shells[id].srv.URL, "http://")] = id
	}
	resolve := netfault.HostResolver(hosts)
	wrap := func(id string) func(*cluster.Options) {
		return func(o *cluster.Options) {
			o.Gossip.SuspectRounds = 1 << 20
			o.WrapTransport = func(rt http.RoundTripper) http.RoundTripper {
				return inj.Transport(id, resolve, rt)
			}
		}
	}
	seeds := []cluster.Peer{
		{ID: "a", URL: shells["a"].srv.URL},
		{ID: "b", URL: shells["b"].srv.URL},
		{ID: "c", URL: shells["c"].srv.URL},
	}
	for _, id := range []string{"a", "b", "c"} {
		bootGossipNode(t, shells[id], seeds, jobs.Options{}, wrap(id))
	}
	trio := []*node{shells["a"], shells["b"], shells["c"]}
	waitAlive(t, trio, "a", "b", "c")

	// Cut a<->c, then join d through b alone while the cut is live.
	inj.PartitionBoth("a", "c")
	bootGossipNode(t, shells["d"], []cluster.Peer{{ID: "b", URL: shells["b"].srv.URL}}, jobs.Options{}, wrap("d"))
	all := []*node{shells["a"], shells["b"], shells["c"], shells["d"]}
	waitAlive(t, all, "a", "b", "c", "d")

	// c is unreachable from a directly, yet a's view holds it alive —
	// the ping-req relays through b and d vouched for it.
	if m, ok := memberRecord(shells["a"], "c"); !ok || m.State != gossip.StateAlive {
		t.Errorf("a's view of c during the partition: %+v, want alive via ping-req", m.Member)
	}

	// Work entering through the partitioned node still answers
	// byte-identically: forwards to c fail fast and race down the
	// rendezvous order instead.
	specs := clusterBatch(7)
	ref := serialReference(t, specs)
	for _, spec := range specs {
		res := submit(t, shells["a"], spec)
		if got, want := normalizedJSON(t, res), ref[res.ID]; !bytes.Equal(got, want) {
			t.Errorf("%s: answer through partitioned node differs from serial reference\n got: %s\nwant: %s",
				spec.Kind, got, want)
		}
	}

	inj.HealAll()
	waitAlive(t, all, "a", "b", "c", "d")
}

// TestGossipStaleViewRejected: departed members stay departed. A stale
// record (the member's pre-departure alive incarnation) arriving over
// the wire must not resurrect it or re-rank the ring; a genuine rejoin
// under the same ID must instead bump its incarnation past the
// departure record it finds waiting.
func TestGossipStaleViewRejected(t *testing.T) {
	a := newGossipNode(t, "a")
	b := newGossipNode(t, "b")
	seeds := []cluster.Peer{{ID: "a", URL: a.srv.URL}, {ID: "b", URL: b.srv.URL}}
	bootGossipNode(t, a, seeds, jobs.Options{}, nil)
	bootGossipNode(t, b, seeds, jobs.Options{}, nil)
	waitAlive(t, []*node{a, b}, "a", "b")

	// b drains, announces a clean departure, and dies.
	drainNode(t, b)
	b.clu.Leave(context.Background())
	oldURL := b.srv.URL
	b.srv.Close()
	b.clu.Close()
	waitMemberState(t, a, "b", gossip.StateLeft)
	left, _ := memberRecord(a, "b")
	genBefore := a.clu.Status().RingGen

	// A stale alive record about b — its incarnation from before the
	// departure — must be rejected: left at a higher incarnation wins.
	stale, err := json.Marshal(cluster.GossipMsg{
		From: "b",
		Records: []gossip.Member{
			{ID: "b", URL: oldURL, State: gossip.StateAlive, Incarnation: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(a.srv.URL+cluster.GossipPath, "application/json", bytes.NewReader(stale))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gossip exchange status %d", resp.StatusCode)
	}
	if m, _ := memberRecord(a, "b"); m.State != gossip.StateLeft || m.Incarnation != left.Incarnation {
		t.Errorf("stale record resurrected b: %+v, want left@%d", m.Member, left.Incarnation)
	}
	if gen := a.clu.Status().RingGen; gen != genBefore {
		t.Errorf("ring generation moved %d -> %d on a stale record", genBefore, gen)
	}

	// A genuine rejoin under the same ID bumps past the departure.
	b2 := newGossipNode(t, "b")
	bootGossipNode(t, b2, []cluster.Peer{{ID: "a", URL: a.srv.URL}}, jobs.Options{}, nil)
	waitAlive(t, []*node{a, b2}, "a", "b")
	if m, _ := memberRecord(a, "b"); m.Incarnation <= left.Incarnation {
		t.Errorf("rejoined b at incarnation %d, want > departure incarnation %d", m.Incarnation, left.Incarnation)
	}
}

// TestDrainRetryHonorsContext pins the drain retry loop's contract:
// when every replica push keeps failing, drain retries on its single
// hoisted ticker (the chanhygiene gate bars the per-iteration
// time.After it used to leak) and returns the incomplete-handoff error
// promptly once ctx expires — it neither spins hot nor hangs past the
// deadline.
func TestDrainRetryHonorsContext(t *testing.T) {
	a := newGossipNode(t, "a")
	b := newGossipNode(t, "b")
	seeds := []cluster.Peer{{ID: "a", URL: a.srv.URL}, {ID: "b", URL: b.srv.URL}}
	bootGossipNode(t, a, seeds, jobs.Options{}, nil)
	bootGossipNode(t, b, seeds, jobs.Options{}, nil)

	// b answers gossip and probes normally but refuses every replica
	// push, so each handoff sweep ends with the result still unplaced.
	// Installed before the compute so the off-path replication at
	// compute time cannot pre-place the result on b either.
	b.mu.Lock()
	inner := b.inner
	b.inner = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v1/results/") {
			http.Error(w, `{"error":"disk full"}`, http.StatusInsufficientStorage)
			return
		}
		inner.ServeHTTP(w, r)
	})
	b.mu.Unlock()
	waitAlive(t, []*node{a, b}, "a", "b")

	spec := clusterBatch(11)[0]
	if resp, raw := postSpec(t, a, spec, true); resp.StatusCode != http.StatusOK {
		t.Fatalf("compute on a: status %d: %s", resp.StatusCode, raw)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	migrated, err := a.clu.Drain(ctx)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("drain reported success while every replica push was refused")
	}
	if !strings.Contains(err.Error(), "drain handoff incomplete") {
		t.Errorf("drain error = %v, want the incomplete-handoff message", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("drain error = %v, want it to wrap context.DeadlineExceeded", err)
	}
	if migrated != 0 {
		t.Errorf("migrated = %d, want 0 (every push was refused)", migrated)
	}
	if elapsed > 5*time.Second {
		t.Errorf("drain returned %v after a 300ms deadline; the retry loop is not honoring ctx", elapsed)
	}
}

// postGossip POSTs a crafted gossip exchange to nd and requires a 200.
func postGossip(t *testing.T, nd *node, records ...gossip.Member) {
	t.Helper()
	body, err := json.Marshal(cluster.GossipMsg{Records: records})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(nd.srv.URL+cluster.GossipPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gossip exchange to %s: status %d", nd.id, resp.StatusCode)
	}
}

// TestDrainWithoutLiveTargetIsIncomplete: a drain whose only peer is
// held dead has no handoff target, but the result it holds is not
// placed anywhere — a dead verdict can be refuted, so the drain must
// keep retrying and report the incomplete handoff at its deadline
// instead of claiming a clean sweep while the result sits only here.
func TestDrainWithoutLiveTargetIsIncomplete(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	a, b := nodes[0], nodes[1]
	spec := clusterBatch(11)[0]
	if resp, raw := postSpec(t, a, spec, true); resp.StatusCode != http.StatusOK {
		t.Fatalf("compute on a: status %d: %s", resp.StatusCode, raw)
	}
	postGossip(t, a, gossip.Member{ID: b.id, URL: b.srv.URL, State: gossip.StateDead})
	if m, _ := memberRecord(a, b.id); m.State != gossip.StateDead {
		t.Fatalf("a's record of b after the dead verdict: %+v", m.Member)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_, err := a.clu.Drain(ctx)
	if err == nil {
		t.Fatal("drain reported success while the result had no live target")
	}
	if !strings.Contains(err.Error(), "drain handoff incomplete") {
		t.Errorf("drain error = %v, want the incomplete-handoff message", err)
	}
}

// TestGossipPartitionHeals: views that hold each other dead on both
// sides of a split — a holds b and c dead, b and c hold a dead — must
// converge back to all-alive on their own. a has nobody to probe and
// nobody probes a, so only the re-join of a seed held dead can carry
// the verdicts across for each side to refute.
func TestGossipPartitionHeals(t *testing.T) {
	nodes := startGossipCluster(t, []string{"a", "b", "c"}, nil)
	a, b, c := nodes[0], nodes[1], nodes[2]
	waitAlive(t, nodes, "a", "b", "c")

	// Each verdict carries the incarnation its receiver holds, so it
	// overrides the alive record there.
	dead := func(to, about *node) gossip.Member {
		m, _ := memberRecord(to, about.id)
		return gossip.Member{ID: about.id, URL: about.srv.URL, State: gossip.StateDead, Incarnation: m.Incarnation}
	}
	postGossip(t, a, dead(a, b), dead(a, c))
	postGossip(t, b, dead(b, a))
	postGossip(t, c, dead(c, a))

	deadline := time.Now().Add(10 * time.Second)
	for {
		healed := true
		for _, nd := range nodes {
			if len(aliveSet(nd)) != 3 {
				healed = false
			}
		}
		if healed {
			return
		}
		if time.Now().After(deadline) {
			for _, nd := range nodes {
				t.Logf("node %s sees alive %v", nd.id, aliveSet(nd))
			}
			t.Fatal("views never healed after a two-sided dead split")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGossipTwoSidedPartitionHeals: a real 2/2 split that outlives the
// suspicion window leaves {a,b} holding {c,d} dead and {c,d} holding
// {a,b} dead, while every node still has a live peer on its own side
// to probe. Once the cut heals nothing routine crosses it — probes,
// ping-req proxies and the ring all skip dead members — so only the
// per-round re-join of a seed held dead can converge the views back to
// four alive members.
func TestGossipTwoSidedPartitionHeals(t *testing.T) {
	inj := netfault.New(netfault.Plan{})
	ids := []string{"a", "b", "c", "d"}
	hosts := make(map[string]string, len(ids))
	nodes := make([]*node, len(ids))
	seeds := make([]cluster.Peer, len(ids))
	for i, id := range ids {
		nodes[i] = newGossipNode(t, id)
		hosts[strings.TrimPrefix(nodes[i].srv.URL, "http://")] = id
		seeds[i] = cluster.Peer{ID: id, URL: nodes[i].srv.URL}
	}
	resolve := netfault.HostResolver(hosts)
	for _, nd := range nodes {
		id := nd.id
		bootGossipNode(t, nd, seeds, jobs.Options{}, func(o *cluster.Options) {
			o.WrapTransport = func(rt http.RoundTripper) http.RoundTripper {
				return inj.Transport(id, resolve, rt)
			}
		})
	}
	waitAlive(t, nodes, ids...)

	left, right := nodes[:2], nodes[2:]
	for _, x := range left {
		for _, y := range right {
			inj.PartitionBoth(x.id, y.id)
		}
	}
	for _, x := range left {
		for _, y := range right {
			waitMemberState(t, x, y.id, gossip.StateDead)
			waitMemberState(t, y, x.id, gossip.StateDead)
		}
	}

	inj.HealAll()
	waitAlive(t, nodes, ids...)
}
