package cluster

import "sync/atomic"

// Metrics counts the cluster routing decisions GET /metrics exposes.
// All fields are safe for concurrent use.
type Metrics struct {
	// Forwarded counts requests proxied to a peer and answered by one.
	Forwarded atomic.Int64
	// Local counts requests this node served itself (it owned the spec,
	// or the request arrived already forwarded).
	Local atomic.Int64
	// Hedged counts hedge requests launched because the current target
	// sat past the latency threshold.
	Hedged atomic.Int64
	// Fallback counts requests served away from their true owner — the
	// owner was suspect or unreachable, so the next node in rendezvous
	// order (possibly this one) computed without the warm cache.
	Fallback atomic.Int64
	// ForwardErrors counts individual peer requests that failed with an
	// availability error (transport failure, 429/5xx).
	ForwardErrors atomic.Int64
	// DigestRejected counts peer responses discarded because their body
	// did not hash to the X-Gapd-Result-Digest they carried (or their
	// payload did not match the expected content address) — wire
	// corruption converted into a retry instead of a wrong answer.
	DigestRejected atomic.Int64
	// Replicated counts completed results successfully pushed to a
	// replica peer at completion time.
	Replicated atomic.Int64
	// ReplicaHits counts requests answered from a peer's replica via
	// GET /v1/results after the owner path failed — finished work a
	// partition could not un-finish.
	ReplicaHits atomic.Int64
	// AntiEntropyRepaired counts results the anti-entropy loop found
	// missing on a replica peer and re-pushed — the convergence signal
	// after a partition heals.
	AntiEntropyRepaired atomic.Int64
	// ReadRepaired counts locally corrupt or quarantined results healed
	// by fetching a verified copy from the replica set on the read path
	// — each one a recompute the scrub + repair machinery did not pay
	// for.
	ReadRepaired atomic.Int64
	// HedgesSuppressed counts forwards whose hedge was disabled because
	// the request's remaining deadline budget was smaller than the hedge
	// threshold — a hedge that cannot finish is load, not insurance.
	HedgesSuppressed atomic.Int64
	// GossipRounds counts completed gossip protocol rounds (probe +
	// dissemination) on this node.
	GossipRounds atomic.Int64
	// HandoffMigrated counts results this node pushed to a new home
	// because ownership moved — a join re-ranked the ring, or this node
	// drained — each one a recompute the cluster did not pay for.
	HandoffMigrated atomic.Int64
	// HandoffFailed counts handoff pushes that could not be delivered
	// (target unreachable or rejecting); anti-entropy or a later sweep
	// retries them.
	HandoffFailed atomic.Int64
	// Suspected counts alive→suspect transitions in this node's gossip
	// view, locally observed or merged from peers.
	Suspected atomic.Int64
	// Refutations counts the times this node bumped its own incarnation
	// to override a peer's claim about it — the SWIM escape hatch that
	// keeps a briefly-unreachable node from being declared dead.
	Refutations atomic.Int64
}

// NewMetrics creates an empty metrics set.
func NewMetrics() *Metrics { return &Metrics{} }

// Counters snapshots the counters under the exact names the /metrics
// contract documents.
func (m *Metrics) Counters() map[string]int64 {
	return map[string]int64{
		"cluster_forwarded":            m.Forwarded.Load(),
		"cluster_local":                m.Local.Load(),
		"cluster_hedged":               m.Hedged.Load(),
		"cluster_fallback":             m.Fallback.Load(),
		"forward_errors":               m.ForwardErrors.Load(),
		"cluster_digest_rejected":      m.DigestRejected.Load(),
		"cluster_replicated":           m.Replicated.Load(),
		"cluster_replica_hits":         m.ReplicaHits.Load(),
		"cluster_antientropy_repaired": m.AntiEntropyRepaired.Load(),
		"cluster_read_repaired":        m.ReadRepaired.Load(),
		"cluster_hedges_suppressed":    m.HedgesSuppressed.Load(),
		"cluster_gossip_rounds":        m.GossipRounds.Load(),
		"cluster_handoff_migrated":     m.HandoffMigrated.Load(),
		"cluster_handoff_failed":       m.HandoffFailed.Load(),
		"cluster_suspected":            m.Suspected.Load(),
		"cluster_refutations":          m.Refutations.Load(),
	}
}
