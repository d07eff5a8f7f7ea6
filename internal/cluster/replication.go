package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"

	"repro/internal/jobs"
)

// ResultsPath is the internal replication endpoint prefix. A result's
// canonical resource is ResultsPath + "/" + its content address:
// GET returns the stored result (404 when absent), PUT stores a
// replica pushed by a peer (201 created, 200 already present).
const ResultsPath = "/v1/results"

// replicaTargets returns the peers (never self) that should hold a
// replica of the result with the given content address: the first R
// nodes in its rendezvous order, minus this node. Health is not
// consulted — the full replica set is the contract; whether a given
// push succeeds right now is the caller's (or anti-entropy's) problem.
func (c *Cluster) replicaTargets(hash string) []Peer {
	if c.replicas <= 1 {
		return nil
	}
	return c.rankTargets(hash, c.replicas)
}

// handoffTargets returns the peers that should hold the result with the
// given content address under the *current* ring, regardless of the
// replication factor: even with replication off, a result whose
// ownership moved (a join re-ranked it, or this node is draining) has
// one rightful home, and handoff pushes it there instead of letting the
// new owner recompute.
func (c *Cluster) handoffTargets(hash string) []Peer {
	return c.rankTargets(hash, max(c.replicas, 1))
}

// rankTargets returns the first n peers (never self) in the hash's
// rendezvous order under the current ring view. Health is not consulted
// — the target set is the contract; whether a given push succeeds right
// now is the caller's (or anti-entropy's) problem.
func (c *Cluster) rankTargets(hash string, n int) []Peer {
	rv := c.rv()
	rank := rv.ring.Rank(hash)
	n = min(n, len(rank))
	out := make([]Peer, 0, n)
	for _, id := range rank[:n] {
		if id == c.self {
			continue
		}
		out = append(out, rv.peers[id])
	}
	return out
}

// pushResult PUTs one result's stored bytes to one peer, stamped with
// their digest so the receiver can verify them before storing. Returns
// whether the receiver newly created the replica (201) as opposed to
// already holding it (200).
func (c *Cluster) pushResult(ctx context.Context, p Peer, st *jobs.Stored) (created bool, err error) {
	rctx, cancel := context.WithTimeout(ctx, c.reqTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPut,
		p.URL+ResultsPath+"/"+st.ID, bytes.NewReader(st.Body))
	if err != nil {
		return false, peerUnavailable(p.ID, 0, err.Error())
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(DigestHeader, st.Digest)
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, peerUnavailable(p.ID, 0, err.Error())
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxPeerResponse))
	switch resp.StatusCode {
	case http.StatusCreated:
		return true, nil
	case http.StatusOK:
		return false, nil
	default:
		return false, peerUnavailable(p.ID, resp.StatusCode, "replica push rejected")
	}
}

// Replicate pushes a freshly completed result to its replica peers
// (best effort — a peer that is down simply misses the push and is
// healed later by anti-entropy). Meant to be called asynchronously
// after local completion; it never blocks the response path.
func (c *Cluster) Replicate(ctx context.Context, res *jobs.Stored) {
	if res == nil || res.ID == "" {
		return
	}
	targets := c.replicaTargets(res.ID)
	if c.Draining() {
		// A result completed during a drain must reach its new home even
		// with replication off — the draining node's copy dies with it.
		targets = c.handoffTargets(res.ID)
	}
	for _, p := range targets {
		if created, err := c.pushResult(ctx, p, res); err == nil && created {
			c.metrics.Replicated.Add(1)
		}
	}
}

// FetchResult asks this result's replica peers for an already-computed
// copy over GET /v1/results/{addr}, digest-verified. Every replica-set
// peer except self is asked regardless of health: replica reads are
// cheap cache lookups that bypass admission, and a peer too loaded to
// accept work can still answer one. Returns (nil, false) when no peer
// holds the result — the caller computes locally.
func (c *Cluster) FetchResult(ctx context.Context, hash string) (*jobs.Stored, bool) {
	for _, p := range c.replicaTargets(hash) {
		res, err := c.fetchFrom(ctx, p, hash)
		if err != nil || res == nil {
			continue
		}
		c.metrics.ReplicaHits.Add(1)
		return res, true
	}
	return nil, false
}

// fetchFrom GETs one result from one peer; (nil, nil) means the peer
// answered but does not hold it.
func (c *Cluster) fetchFrom(ctx context.Context, p Peer, hash string) (*jobs.Stored, error) {
	rctx, cancel := context.WithTimeout(ctx, c.reqTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, p.URL+ResultsPath+"/"+hash, nil)
	if err != nil {
		return nil, peerUnavailable(p.ID, 0, err.Error())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, peerUnavailable(p.ID, 0, err.Error())
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerResponse))
	if err != nil {
		return nil, peerUnavailable(p.ID, 0, "reading response: "+err.Error())
	}
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	res, derr := decodePeerResponse(p.ID, resp.StatusCode, resp.Header.Get(DigestHeader), raw, hash)
	if derr != nil {
		if errors.Is(derr, ErrCorruptReply) {
			c.metrics.DigestRejected.Add(1)
		}
		return nil, derr
	}
	return res, nil
}

// ReadRepair fetches a verified copy of a result this node's store
// condemned (corrupt on read, or quarantined by the scrubber) from its
// replica set — the hook the jobs pool consults before admitting a
// recompute. The fetch path digest-verifies the bytes and checks they
// decode to the requested content address; the pool re-verifies the
// spec hash and re-Puts the body locally, which clears the store's
// quarantine. Each successful fetch counts cluster_read_repaired.
func (c *Cluster) ReadRepair(ctx context.Context, hash string) (*jobs.Stored, bool) {
	res, ok := c.FetchResult(ctx, hash)
	if ok {
		c.metrics.ReadRepaired.Add(1)
	}
	return res, ok
}

// ReplicationEnabled reports whether this cluster keeps replicas at
// all (replication factor above one) — when false, a condemned record
// has no peer to be repaired from and /healthz should say so.
func (c *Cluster) ReplicationEnabled() bool {
	return c != nil && c.replicas > 1
}

// AntiEntropyNow runs one repair sweep: every result this node holds
// whose replica set includes peers is re-pushed to the currently usable
// ones. Receivers dedup (200 vs 201), so a sweep over an already
// converged cluster is read-only chatter; each 201 — a replica that was
// actually missing — is counted in cluster_antientropy_repaired.
// Returns the number of replicas repaired.
func (c *Cluster) AntiEntropyNow(ctx context.Context) int {
	if c.results == nil || c.replicas <= 1 {
		return 0
	}
	repaired := 0
	for _, id := range c.results.Keys() {
		if ctx.Err() != nil {
			return repaired
		}
		res, ok := c.results.Get(id)
		if !ok {
			continue
		}
		for _, p := range c.replicaTargets(id) {
			if !c.usable(p.ID) {
				continue // unreachable now; a later sweep will retry
			}
			if created, err := c.pushResult(ctx, p, res); err == nil && created {
				c.metrics.AntiEntropyRepaired.Add(1)
				repaired++
			}
		}
	}
	return repaired
}
