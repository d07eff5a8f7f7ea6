package cluster_test

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/gossip"
	"repro/internal/jobs"
	"repro/internal/serve"
)

// quiesce waits until every push nd's handler started off the response
// path has finished.
func quiesce(nd *node) {
	nd.mu.Lock()
	h := nd.inner.(*serve.Handler)
	nd.mu.Unlock()
	h.Quiesce()
}

// TestPlaceSingleReplicaReachesOwner: at a replication factor of 1, a
// result computed away from its owner (a fallback while the owner is
// suspect) still reaches the owner once the owner is alive again. The
// compute push skips the suspect owner, and the periodic tick, which
// runs at every replication factor, delivers the result after the
// suspicion clears, so the owner never recomputes it.
func TestPlaceSingleReplicaReachesOwner(t *testing.T) {
	nodes := startCluster(t, 3, func(o *cluster.Options) {
		o.AntiEntropyInterval = 25 * time.Millisecond
	})
	spec := clusterBatch(19)[0]
	rank := nodes[0].clu.Ring().Rank(spec.Hash())
	owner, entry := byID(t, nodes, rank[0]), byID(t, nodes, rank[1])

	postGossip(t, entry, gossip.Member{ID: owner.id, URL: owner.srv.URL, State: gossip.StateSuspect})
	if a := postRaw(t, entry, spec); a.by != jobs.ServedCompute {
		t.Fatalf("fallback answer served by %q, want compute", a.by)
	}
	quiesce(entry)
	if _, ok := owner.pool.Cache().Get(spec.Hash()); ok {
		t.Fatal("the compute push reached a suspect owner")
	}

	// The owner refutes the suspicion; the entry's sweep goroutine
	// places the result on its next tick.
	postGossip(t, entry, gossip.Member{ID: owner.id, URL: owner.srv.URL, State: gossip.StateAlive, Incarnation: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	entry.clu.Start(ctx)
	waitCached(t, owner, spec.Hash(), "tick placement at replicas = 1")
	deadline := time.Now().Add(5 * time.Second)
	for entry.clu.Metrics().Counters()["cluster_antientropy_repaired"] == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	cnt := entry.clu.Metrics().Counters()
	if cnt["cluster_antientropy_repaired"] != 1 || cnt["cluster_replicated"] != 0 {
		t.Errorf("cluster_antientropy_repaired = %d, cluster_replicated = %d, want 1 and 0 (the tick placed it, the compute push did not)",
			cnt["cluster_antientropy_repaired"], cnt["cluster_replicated"])
	}
	if got := owner.pool.Metrics().JobsStarted.Load(); got != 0 {
		t.Errorf("owner started %d jobs, want 0", got)
	}
}

// TestPlaceHealthRuleAcrossTriggers: every trigger of the placement
// sweep applies one health rule. A target the view holds suspect gets
// no push and counts unplaced, so no sweep waits out a request timeout
// on it, and a drain keeps retrying until the suspicion resolves. The
// cluster is never started, so no gossip round clears the suspicion
// between triggers; b refuses gossip, so the drain's announcement
// cannot clear it either. Drain runs last: it takes a out of the ring.
func TestPlaceHealthRuleAcrossTriggers(t *testing.T) {
	nodes := startCluster(t, 2, func(o *cluster.Options) { o.Replicas = 2 })
	a, b := nodes[0], nodes[1]
	spec := clusterBatch(11)[0]
	if resp, raw := postSpec(t, a, spec, true); resp.StatusCode != http.StatusOK {
		t.Fatalf("compute on a: status %d: %s", resp.StatusCode, raw)
	}
	quiesce(a)
	res, ok := a.pool.Cache().Get(spec.Hash())
	if !ok {
		t.Fatal("a does not hold the result it computed")
	}

	b.mu.Lock()
	inner := b.inner
	b.inner = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == cluster.GossipPath {
			http.Error(w, "unreachable", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	})
	b.mu.Unlock()
	postGossip(t, a, gossip.Member{ID: b.id, URL: b.srv.URL, State: gossip.StateSuspect})
	if m, _ := memberRecord(a, b.id); m.State != gossip.StateSuspect {
		t.Fatalf("a's record of b after the suspicion: %+v", m.Member)
	}
	putsBefore := b.puts.Load()

	triggers := []struct {
		name string
		run  func(context.Context) (created, unplaced int)
	}{
		{"compute", func(ctx context.Context) (int, int) { return a.clu.Replicate(ctx, res) }},
		{"tick", a.clu.AntiEntropyNow},
		{"ring change", a.clu.HandoffNow},
		{"drain", func(ctx context.Context) (int, int) {
			ctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
			defer cancel()
			migrated, err := a.clu.Drain(ctx)
			unplaced := 0
			if err != nil {
				fmt.Sscanf(err.Error(), "cluster: drain handoff incomplete, %d", &unplaced)
			}
			return migrated, unplaced
		}},
	}
	for _, tr := range triggers {
		created, unplaced := tr.run(context.Background())
		if created != 0 || unplaced != 1 {
			t.Errorf("%s: created %d, unplaced %d, want 0 and 1", tr.name, created, unplaced)
		}
		if got := b.puts.Load() - putsBefore; got != 0 {
			t.Errorf("%s: %d pushes reached the suspect target, want 0", tr.name, got)
		}
	}
}
