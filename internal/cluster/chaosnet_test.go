// Chaos-net: the partition-tolerance acceptance suite. Each test wires
// a deterministic netfault injector into every node's peer transport
// and asserts the cluster's invariants under network faults, for the
// fixed seed matrix {1, 7, 42}:
//
//   - an owner partitioned away mid-run cannot take its finished work
//     with it — a replica (or the fallback path) serves byte-identical
//     results;
//   - a corrupted peer response is rejected by digest verification and
//     never cached or relayed;
//   - a replica push lost to a partition is repaired by anti-entropy
//     within one sweep after the link heals.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/netfault"
	"repro/internal/serve"
)

// netTweak builds a startCluster tweak that wires the shared injector
// into each node's peer transport (keyed by the node's own id as src)
// and enables replication at factor 2.
func netTweak(t *testing.T, inj *netfault.Injector, more func(*cluster.Options)) func(*cluster.Options) {
	t.Helper()
	return func(o *cluster.Options) {
		hosts := make(map[string]string, len(o.Peers))
		for _, p := range o.Peers {
			u, err := url.Parse(p.URL)
			if err != nil {
				t.Fatal(err)
			}
			hosts[u.Host] = p.ID
		}
		self := o.SelfID
		o.Replicas = 2
		o.WrapTransport = func(rt http.RoundTripper) http.RoundTripper {
			return inj.Transport(self, netfault.HostResolver(hosts), rt)
		}
		if more != nil {
			more(o)
		}
	}
}

// waitCached polls until the node's result cache holds id.
func waitCached(t *testing.T, nd *node, id string, what string) *jobs.Stored {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := nd.pool.Cache().Get(id); ok {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s: node %s never cached %.12s", what, nd.id, id)
	return nil
}

// allIDs lists every node id.
func allIDs(nodes []*node) []string {
	ids := make([]string, len(nodes))
	for i, nd := range nodes {
		ids[i] = nd.id
	}
	return ids
}

// TestChaosNetPartitionedOwnerReplicaServes: the tentpole scenario. The
// owner computes a result and replicates it; then the owner is
// partitioned away and the next replica holder refuses job traffic
// (torn POSTs). The entry node — last in rendezvous order — must still
// answer byte-identically to the serial reference, by fetching the
// finished result from the replica over GET /v1/results instead of
// recomputing: a partition cannot un-finish replicated work.
func TestChaosNetPartitionedOwnerReplicaServes(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			specs := clusterBatch(seed)
			ref := serialReference(t, specs)
			for _, spec := range specs {
				inj := netfault.New(netfault.Plan{Seed: seed})
				nodes := startCluster(t, 3, netTweak(t, inj, nil))
				rank := nodes[0].clu.Ring().Rank(spec.Hash())
				owner := byID(t, nodes, rank[0])
				replica := byID(t, nodes, rank[1])
				entry := byID(t, nodes, rank[2])

				// The owner computes and (asynchronously) replicates.
				res := submit(t, owner, spec)
				if got, want := normalizedJSON(t, res), ref[res.ID]; !bytes.Equal(got, want) {
					t.Fatalf("%s: owner result differs from serial reference", spec.Kind)
				}
				rres := waitCached(t, replica, res.ID, string(spec.Kind)+" replication")
				if got, want := rres.Body, ref[res.ID]; !bytes.Equal(got, want) {
					t.Errorf("%s: replica copy differs from serial reference", spec.Kind)
				}

				// Partition the owner away; the replica holder stays
				// reachable but tears every job POST — so only the
				// replica-read path can avoid recomputing.
				inj.Isolate(owner.id, allIDs(nodes)...)
				replica.abortPosts.Store(true)

				res2 := submit(t, entry, spec)
				if got, want := normalizedJSON(t, res2), ref[res2.ID]; !bytes.Equal(got, want) {
					t.Errorf("%s: partitioned-owner result differs from serial reference\n got: %s\nwant: %s",
						spec.Kind, got, want)
				}
				if got := entry.clu.Metrics().Counters()["cluster_replica_hits"]; got < 1 {
					t.Errorf("%s: cluster_replica_hits = %d, want >= 1", spec.Kind, got)
				}
				if got := entry.pool.Metrics().JobsStarted.Load(); got != 0 {
					t.Errorf("%s: entry node started %d jobs, want 0 (replica read must avoid recompute)",
						spec.Kind, got)
				}
				if inj.Partitions.Load() < 1 {
					t.Errorf("%s: no partition faults fired", spec.Kind)
				}
			}
		})
	}
}

// TestChaosNetCorruptedResponseRejected: every response the owner sends
// is bit-corrupted in flight. Digest verification must convert each
// corruption into a transient peer failure — the entry node retries
// down the rendezvous order and still answers byte-identically — and no
// node's cache may ever hold bytes that differ from the reference.
func TestChaosNetCorruptedResponseRejected(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			specs := clusterBatch(seed)
			ref := serialReference(t, specs)
			for _, spec := range specs {
				// Resolve ownership with a throwaway ring: Match must name
				// the owner before the cluster exists.
				probe := startCluster(t, 3, nil)
				ownerID := probe[0].clu.Ring().Owner(spec.Hash())

				inj := netfault.New(netfault.Plan{
					Seed:        seed,
					CorruptRate: 1, // every response from the owner is corrupted
					Match:       "->" + ownerID + "/",
				})
				nodes := startCluster(t, 3, netTweak(t, inj, nil))
				owner := byID(t, nodes, ownerID)
				entry := otherThan(nodes, owner)

				res := submit(t, entry, spec)
				if got, want := normalizedJSON(t, res), ref[res.ID]; !bytes.Equal(got, want) {
					t.Errorf("%s: result served through corruption differs from serial reference\n got: %s\nwant: %s",
						spec.Kind, got, want)
				}
				if got := entry.clu.Metrics().Counters()["cluster_digest_rejected"]; got < 1 {
					t.Errorf("%s: cluster_digest_rejected = %d, want >= 1", spec.Kind, got)
				}
				if inj.Corruptions.Load() < 1 {
					t.Errorf("%s: no corruption faults fired", spec.Kind)
				}
				// The corrupted bytes must not have been cached anywhere:
				// every cached copy of this result is reference-identical.
				for _, nd := range nodes {
					if cached, ok := nd.pool.Cache().Get(res.ID); ok {
						if !bytes.Equal(cached.Body, ref[res.ID]) {
							t.Errorf("%s: node %s cached a corrupted result", spec.Kind, nd.id)
						}
					}
				}
			}
		})
	}
}

// TestChaosNetAntiEntropyRepairs: the completion-time replica push is
// lost to a directed partition; after the link heals, the background
// anti-entropy loop must converge the replica within one interval
// (counted in cluster_antientropy_repaired), after which the replica
// serves the result from cache even with the owner fully partitioned.
func TestChaosNetAntiEntropyRepairs(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			spec := clusterBatch(seed)[0]
			ref := serialReference(t, []jobs.Spec{spec})

			inj := netfault.New(netfault.Plan{Seed: seed})
			const aeInterval = 25 * time.Millisecond
			nodes := startCluster(t, 3, netTweak(t, inj, func(o *cluster.Options) {
				o.AntiEntropyInterval = aeInterval
			}))
			rank := nodes[0].clu.Ring().Rank(spec.Hash())
			owner := byID(t, nodes, rank[0])
			replica := byID(t, nodes, rank[1])
			entry := byID(t, nodes, rank[2])

			// Cut owner->replica before the job runs: the completion-time
			// push fails, the result exists only on the owner. The async
			// push runs off the response path, so wait for the owner's
			// handler to quiesce — only then is healing safe (healing
			// earlier would let a slow push goroutine replicate through
			// the healed link and leave anti-entropy nothing to repair).
			// The compute's replica lookup crosses the same cut link
			// before the push, so the push is proven to have fired and
			// died only by a second partition hit on top of the lookup's.
			inj.Partition(owner.id, replica.id)
			before := inj.Partitions.Load()
			res := submit(t, owner, spec)
			owner.mu.Lock()
			h := owner.inner.(*serve.Handler)
			owner.mu.Unlock()
			h.Quiesce()
			if hits := inj.Partitions.Load() - before; hits < 2 {
				t.Fatalf("completion-time push never hit the cut link: %d partition hits, want the lookup's and the push's", hits)
			}
			if _, ok := replica.pool.Cache().Get(res.ID); ok {
				t.Fatal("replica received the push through a cut link")
			}

			// Heal and start the owner's background loops; one sweep must
			// repair the replica.
			inj.Heal(owner.id, replica.id)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			owner.clu.Start(ctx)
			waitCached(t, replica, res.ID, "anti-entropy repair")
			// The replica's cache fills inside the PUT handler, before the
			// owner's push sees the 201 — poll the sender-side counter.
			repairDeadline := time.Now().Add(5 * time.Second)
			for owner.clu.Metrics().Counters()["cluster_antientropy_repaired"] == 0 &&
				time.Now().Before(repairDeadline) {
				time.Sleep(2 * time.Millisecond)
			}
			if got := owner.clu.Metrics().Counters()["cluster_antientropy_repaired"]; got < 1 {
				t.Errorf("cluster_antientropy_repaired = %d, want >= 1", got)
			}

			// With the owner now fully partitioned, the repaired replica
			// carries the slice: the entry node forwards to it and gets the
			// cached, reference-identical result.
			inj.Isolate(owner.id, allIDs(nodes)...)
			res2 := submit(t, entry, spec)
			if got, want := normalizedJSON(t, res2), ref[res2.ID]; !bytes.Equal(got, want) {
				t.Errorf("post-repair result differs from serial reference\n got: %s\nwant: %s", got, want)
			}
			if res2.ID != res.ID {
				t.Errorf("ids differ: %s vs %s", res.ID, res2.ID)
			}
		})
	}
}

// TestHedgeLoserCanceled: the moment a hedge race has a winner, the
// losing leg's request must be canceled — observed here as the slow
// owner's handler seeing its context die long before its injected delay
// elapses, instead of sleeping out the full 10s holding a worker.
func TestHedgeLoserCanceled(t *testing.T) {
	nodes := startCluster(t, 3, func(o *cluster.Options) {
		o.HedgeAfter = 10 * time.Millisecond
	})
	spec := clusterBatch(13)[0]
	owner := byID(t, nodes, nodes[0].clu.Ring().Owner(spec.Hash()))
	entry := otherThan(nodes, owner)
	owner.delayPosts.Store(int64(10 * time.Second))

	start := time.Now()
	res := submit(t, entry, spec)
	if res.ID != spec.Hash() {
		t.Fatalf("wrong result id %.12s", res.ID)
	}

	// The losing leg must be canceled promptly after the winner returns,
	// not when the 10s delay expires.
	deadline := time.Now().Add(2 * time.Second)
	for owner.abortedDelays.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if owner.abortedDelays.Load() == 0 {
		t.Fatal("losing hedge leg was never canceled")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, delay is 10s — loser ran to completion", elapsed)
	}
	if got := entry.clu.Metrics().Counters()["cluster_hedged"]; got < 1 {
		t.Errorf("cluster_hedged = %d, want >= 1", got)
	}
}

// TestDeadlineSuppressesHedging: a propagated deadline smaller than the
// hedge threshold disables hedging for the request — a hedge that
// cannot answer before the caller's deadline is pure load — counted in
// cluster_hedges_suppressed.
func TestDeadlineSuppressesHedging(t *testing.T) {
	nodes := startCluster(t, 3, func(o *cluster.Options) {
		o.HedgeAfter = 2 * time.Second
	})
	spec := clusterBatch(17)[0]
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
	req.Header.Set(cluster.DeadlineHeader, time.Now().Add(1*time.Second).UTC().Format(time.RFC3339Nano))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (deadline has room for the job, just not for a hedge)", resp.StatusCode)
	}
	c := entry.clu.Metrics().Counters()
	if c["cluster_hedges_suppressed"] < 1 {
		t.Errorf("cluster_hedges_suppressed = %d, want >= 1", c["cluster_hedges_suppressed"])
	}
	if c["cluster_hedged"] != 0 {
		t.Errorf("cluster_hedged = %d, want 0 (hedging was suppressed)", c["cluster_hedged"])
	}
}
