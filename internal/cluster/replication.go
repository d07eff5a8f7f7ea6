package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"sync/atomic"

	"repro/internal/jobs"
)

// ResultsPath is the internal replication endpoint prefix. A result's
// canonical resource is ResultsPath + "/" + its content address:
// GET returns the stored result (404 when absent), PUT stores a
// replica pushed by a peer (201 created, 200 already present).
const ResultsPath = "/v1/results"

// targets returns the peers (never self) that should hold the result
// with the given content address under the current ring: its first
// max(replicas, 1) rendezvous ranks, minus this node. Health is not
// consulted — the target set is the contract; place decides which of
// them a push may reach right now.
func (c *Cluster) targets(hash string) []Peer {
	rv := c.rv()
	rank := rv.ring.Rank(hash)
	rank = rank[:min(max(c.replicas, 1), len(rank))]
	out := make([]Peer, 0, len(rank))
	for _, id := range rank {
		if id != c.self {
			out = append(out, rv.peers[id])
		}
	}
	return out
}

// tally names the counters one trigger of place credits: each push
// that created a copy at its target, and each push that failed (nil
// for triggers that do not count failures).
type tally struct{ created, failed *atomic.Int64 }

// place is the one placement sweep: every key is pushed to each of its
// targets, and the return counts the copies created there and the
// (key, target) placements not made. A target the view does not hold
// alive is skipped and counted unplaced, so no sweep waits out a
// request timeout on a suspect, and a drain retries until the
// suspicion resolves either way. When the ring is empty (this node
// drained out of it and no peer is in it) while a peer may yet return,
// every key counts unplaced: "no live target" is not "placed". So does
// every key a canceled sweep did not reach. get reads a key's stored
// bytes only once a target is usable; a key gone by then is skipped.
func (c *Cluster) place(ctx context.Context, keys []string, get func(string) (*jobs.Stored, bool), t tally) (created, unplaced int) {
	if c.rv().ring.Len() == 0 && c.gossip.peerMayReturn() {
		return 0, len(keys)
	}
	for i, id := range keys {
		if ctx.Err() != nil {
			return created, unplaced + len(keys) - i
		}
		var st *jobs.Stored
		for _, p := range c.targets(id) {
			if !c.usable(p.ID) {
				unplaced++
				continue
			}
			if st == nil {
				var ok bool
				if st, ok = get(id); !ok {
					break
				}
			}
			fresh, err := c.pushResult(ctx, p, st)
			switch {
			case err != nil:
				if t.failed != nil {
					t.failed.Add(1)
				}
				unplaced++
			case fresh:
				t.created.Add(1)
				created++
			}
		}
	}
	return created, unplaced
}

// sweep places every result this node holds.
func (c *Cluster) sweep(ctx context.Context, t tally) (created, unplaced int) {
	if c.results == nil {
		return 0, 0
	}
	return c.place(ctx, c.results.Keys(), c.results.Get, t)
}

// Replicate places one freshly computed result (the compute trigger,
// counted in cluster_replicated). It pushes the result it is handed,
// so a cache eviction cannot drop the push. A target that misses it is
// reached by a later tick or ring-change sweep. Meant to be called off
// the response path.
func (c *Cluster) Replicate(ctx context.Context, res *jobs.Stored) (created, unplaced int) {
	if res == nil || res.ID == "" {
		return 0, 0
	}
	held := func(string) (*jobs.Stored, bool) { return res, true }
	return c.place(ctx, []string{res.ID}, held, tally{created: &c.metrics.Replicated})
}

// AntiEntropyNow runs one pass of the periodic tick: every held result
// is offered to its targets again, and each copy a target was missing
// counts in cluster_antientropy_repaired. Receivers dedup (200 against
// 201), so a tick over a converged cluster only re-reads.
func (c *Cluster) AntiEntropyNow(ctx context.Context) (repaired, unplaced int) {
	return c.sweep(ctx, tally{created: &c.metrics.AntiEntropyRepaired})
}

// HandoffNow runs one handoff pass, the sweep a ring change and each
// drain retry run: copies created count in cluster_handoff_migrated,
// failed pushes in cluster_handoff_failed. The shutdown path calls it
// after the HTTP server has quiesced, so results completed during the
// drain window move too.
func (c *Cluster) HandoffNow(ctx context.Context) (migrated, unplaced int) {
	return c.sweep(ctx, tally{created: &c.metrics.HandoffMigrated, failed: &c.metrics.HandoffFailed})
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

// FetchResult asks this result's replica peers for an already-computed
// copy over GET /v1/results/{addr}, digest-verified. Every replica-set
// peer except self is asked regardless of health: replica reads are
// cheap cache lookups that bypass admission, and a peer too loaded to
// accept work can still answer one. Returns (nil, false) when no peer
// holds the result — the caller computes locally.
func (c *Cluster) FetchResult(ctx context.Context, hash string) (*jobs.Stored, bool) {
	if c.replicas <= 1 {
		return nil, false
	}
	for _, p := range c.targets(hash) {
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
