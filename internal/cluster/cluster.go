// Package cluster turns N independent gapd processes into one sharded
// evaluation service. Membership is either a static peer list
// health-probed over /healthz or — with Options.Gossip — a dynamic
// SWIM-style view (internal/gossip) where nodes join, drain, and leave
// at runtime, ownership re-ranks live as the view changes, and
// completed results migrate to their new owners over the replication
// endpoints instead of being recomputed. Ownership is rendezvous
// hashing over the job's
// content address (a pure function of the peer set and the spec hash,
// so every node agrees with zero coordination); requests for specs
// another node owns are forwarded over HTTP with hedged reads (race the
// owner against the next node in rendezvous order once it runs slow —
// exact, because evaluation is deterministic and content-addressed);
// and when the owner is dead the next node in order computes locally,
// trading warm-cache throughput for availability, never the reverse.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/gossip"
	"repro/internal/jobs"
)

// ErrConfig marks invalid cluster configuration caught at startup
// (peer-list parsing, self-id mismatches). It is deliberately outside
// the jobs failure taxonomy — a config error aborts boot and never
// crosses the retry/breaker path — but wrapping it keeps every exported
// cluster error classifiable with errors.Is, which gaplint's
// errtaxonomy analyzer enforces.
var ErrConfig = errors.New("cluster: invalid configuration")

// ForwardedHeader marks a request already proxied once by a peer. A
// receiving node serves such a request locally no matter who owns it —
// the one-hop loop guard that makes divergent health views safe.
const ForwardedHeader = "X-Gapd-Forwarded"

// Peer is one static cluster member.
type Peer struct {
	// ID names the node (must be unique across the cluster).
	ID string `json:"id"`
	// URL is the node's base HTTP address (e.g. http://host:8080).
	URL string `json:"url"`
	// Weight scales the node's ownership share via virtual nodes
	// (default 1).
	Weight int `json:"weight,omitempty"`
}

// GossipOptions enables dynamic SWIM-style membership in place of the
// static health-probed peer list.
type GossipOptions struct {
	// SelfURL is this node's advertised base HTTP address — what other
	// members will dial. Required.
	SelfURL string
	// Seed drives the deterministic probe/ping-req target selection
	// (see internal/gossip). Nodes may use different seeds.
	Seed int64
	// Interval spaces protocol rounds (default 250ms).
	Interval time.Duration
	// ProbeTimeout caps one gossip exchange, direct or proxied
	// (default 1s).
	ProbeTimeout time.Duration
	// SuspectRounds / PingReqFanout tune the failure detector; zero
	// selects the gossip package defaults.
	SuspectRounds int
	PingReqFanout int
	// Weight is this node's rendezvous weight (default 1).
	Weight int
}

// Options configures a Cluster.
type Options struct {
	// SelfID names this node; with static membership it must appear in
	// Peers.
	SelfID string
	// Peers is the full static membership, including this node. Under
	// Gossip it is instead the seed contact list — addresses to
	// announce the join to — and may omit self (or, for the first node
	// of a new cluster, be empty).
	Peers []Peer
	// Gossip, when non-nil, replaces static membership with the
	// SWIM-style dynamic view: seeded probe/ping-req rounds over
	// POST /v1/gossip, incarnation-numbered alive/suspect/dead states,
	// live ring re-ranking, and ownership handoff on join/drain.
	Gossip *GossipOptions
	// HedgeAfter is how long a forwarded request may sit unanswered
	// before a hedge is raced against the next node in rendezvous order
	// (default 50ms; negative disables hedging).
	HedgeAfter time.Duration
	// RequestTimeout caps one forwarded request (default 2 minutes).
	RequestTimeout time.Duration
	// ProbeInterval spaces the periodic /healthz probes (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout caps one probe (default 1s).
	ProbeTimeout time.Duration
	// DeadAfter is the consecutive probe/forward failures that declare
	// a peer dead (default 3).
	DeadAfter int
	// MaxConnsPerPeer bounds the connection pool per peer (default 16).
	MaxConnsPerPeer int
	// MaxTargets caps the forward chain per request: the acting owner
	// plus hedge/fallback candidates in rendezvous order (default 3).
	MaxTargets int
	// VNodes is the virtual-node multiplier per unit of peer weight
	// (default DefaultVNodes).
	VNodes int
	// Metrics receives the routing counters; nil allocates a private
	// set (retrievable via Cluster.Metrics).
	Metrics *Metrics
	// AliveAfter is the consecutive probe/forward successes a dead peer
	// must produce before flap damping promotes it back to alive
	// (default 2; 1 disables damping).
	AliveAfter int
	// Replicas is the replication factor R: a completed result lives on
	// the first R nodes in its rendezvous order (owner included), pushed
	// asynchronously at completion time and repaired by anti-entropy
	// (default 1 — replication off; every result lives only where it was
	// computed).
	Replicas int
	// AntiEntropyInterval spaces the background repair sweeps that
	// re-push cached results to replica peers that missed the
	// completion-time push (a partition, a restart). Zero disables the
	// loop; AntiEntropyNow remains callable either way.
	AntiEntropyInterval time.Duration
	// DeadlineMargin is subtracted from the caller's deadline at each
	// forward hop before it is stamped onto the wire, reserving budget
	// for this hop's own marshalling and transit (default 10ms).
	DeadlineMargin time.Duration
	// Results exposes this node's completed-result store to replication
	// and anti-entropy (typically the pool's cache). Nil disables the
	// /v1/results serving path, replica fallback reads, and
	// anti-entropy.
	Results ResultStore
	// WrapTransport, when non-nil, wraps the HTTP transport used for
	// every peer request — forwards, probes, replication pushes, and
	// replica reads alike. The netfault injector hooks in here.
	WrapTransport func(http.RoundTripper) http.RoundTripper
}

// ResultStore is the completed-result view replication reads from:
// enumerate the content addresses this node holds and fetch one's
// stored bytes by address. *jobs.StoredView satisfies it.
type ResultStore interface {
	Keys() []string
	Get(id string) (*jobs.Stored, bool)
}

// ringView is one immutable generation of the ownership view: the ring
// plus the peer records it ranks over. Static clusters build it once;
// gossip clusters rebuild and atomically swap it whenever the
// membership view's ring-eligible set changes, so routing reads are
// lock-free either way.
type ringView struct {
	ring  *Ring
	peers map[string]Peer
}

// Cluster is one node's view of the sharded service: the ownership
// ring, the health-tracked membership, and the forwarding client.
type Cluster struct {
	self           string
	hedgeAfter     time.Duration
	maxTargets     int
	replicas       int
	vnodes         int
	aeInterval     time.Duration
	deadlineMargin time.Duration
	view           atomic.Pointer[ringView]
	members        *membership // static mode only
	gossip         *gossipRunner
	results        ResultStore
	hc             *http.Client
	reqTimeout     time.Duration
	metrics        *Metrics

	aeCancel context.CancelFunc
	aeDone   chan struct{}
}

// rv returns the current ring view (never nil).
func (c *Cluster) rv() *ringView { return c.view.Load() }

// usable reports whether id may be routed to under the active
// membership mode.
func (c *Cluster) usable(id string) bool {
	if id == c.self {
		return true
	}
	if c.gossip != nil {
		return c.gossip.routable(id)
	}
	return c.members.usable(id)
}

// reportSuccess is the passive health signal from a successful peer
// request.
func (c *Cluster) reportSuccess(id string) {
	if c.gossip != nil {
		c.gossip.view.ObserveAlive(id)
		return
	}
	c.members.reportSuccess(id)
}

// reportFailure is the passive health signal from a failed peer
// request. Under gossip it opens the suspicion window — the member
// stays in the ring and has SuspectRounds to refute via incarnation
// bump before being declared dead, which subsumes the static mode's
// consecutive-failure flap damping.
func (c *Cluster) reportFailure(id string, err error) {
	if c.gossip != nil {
		if c.gossip.view.ObserveFailure(id) {
			c.gossip.syncStats()
		}
		return
	}
	c.members.reportFailure(id, err)
}

// New validates opt and builds the node's cluster view. Call Start to
// begin health probing (static) or the gossip loop, and Close to stop.
func New(opt Options) (*Cluster, error) {
	if opt.Gossip == nil && len(opt.Peers) == 0 {
		return nil, fmt.Errorf("%w: empty peer list", ErrConfig)
	}
	byID := make(map[string]Peer, len(opt.Peers))
	for _, p := range opt.Peers {
		if p.ID == "" || p.URL == "" {
			return nil, fmt.Errorf("%w: peer with empty id or url: %+v", ErrConfig, p)
		}
		if _, dup := byID[p.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate peer id %q", ErrConfig, p.ID)
		}
		p.URL = strings.TrimRight(p.URL, "/")
		byID[p.ID] = p
	}
	if opt.Gossip == nil {
		if _, ok := byID[opt.SelfID]; !ok {
			return nil, fmt.Errorf("%w: self id %q not in peer list", ErrConfig, opt.SelfID)
		}
	} else {
		if opt.SelfID == "" {
			return nil, fmt.Errorf("%w: gossip mode requires a node id", ErrConfig)
		}
		if opt.Gossip.SelfURL == "" {
			return nil, fmt.Errorf("%w: gossip mode requires an advertised self URL", ErrConfig)
		}
	}
	if opt.HedgeAfter == 0 {
		opt.HedgeAfter = 50 * time.Millisecond
	}
	if opt.RequestTimeout <= 0 {
		opt.RequestTimeout = 2 * time.Minute
	}
	if opt.ProbeInterval <= 0 {
		opt.ProbeInterval = 2 * time.Second
	}
	if opt.ProbeTimeout <= 0 {
		opt.ProbeTimeout = time.Second
	}
	if opt.DeadAfter <= 0 {
		opt.DeadAfter = 3
	}
	if opt.MaxConnsPerPeer <= 0 {
		opt.MaxConnsPerPeer = 16
	}
	if opt.MaxTargets <= 0 {
		opt.MaxTargets = 3
	}
	if opt.Metrics == nil {
		opt.Metrics = NewMetrics()
	}
	if opt.AliveAfter <= 0 {
		opt.AliveAfter = 2
	}
	if opt.Replicas <= 0 {
		opt.Replicas = 1
	}
	if opt.DeadlineMargin <= 0 {
		opt.DeadlineMargin = 10 * time.Millisecond
	}
	normalized := make([]Peer, 0, len(byID))
	for _, p := range opt.Peers {
		normalized = append(normalized, byID[p.ID])
	}
	// One shared transport for every peer-facing request — forwards,
	// probes, replication, replica reads — so a netfault wrapper sees
	// (and can partition) all of them.
	var rt http.RoundTripper = &http.Transport{
		MaxIdleConns:        opt.MaxConnsPerPeer * len(byID),
		MaxIdleConnsPerHost: opt.MaxConnsPerPeer,
		MaxConnsPerHost:     opt.MaxConnsPerPeer,
		IdleConnTimeout:     90 * time.Second,
	}
	if opt.WrapTransport != nil {
		rt = opt.WrapTransport(rt)
	}
	c := &Cluster{
		self:           opt.SelfID,
		hedgeAfter:     opt.HedgeAfter,
		maxTargets:     opt.MaxTargets,
		replicas:       opt.Replicas,
		vnodes:         opt.VNodes,
		aeInterval:     opt.AntiEntropyInterval,
		deadlineMargin: opt.DeadlineMargin,
		results:        opt.Results,
		reqTimeout:     opt.RequestTimeout,
		metrics:        opt.Metrics,
		hc:             &http.Client{Transport: rt},
	}
	if opt.Gossip != nil {
		g, err := newGossipRunner(c, opt, normalized)
		if err != nil {
			return nil, err
		}
		c.gossip = g
		// The boot view contains only self; seeds are contacts, not
		// members — the first exchange merges the real cluster in and
		// swaps a wider ring. Until then the node serves locally, which
		// is only a cache-affinity cost: results are content-addressed,
		// so early answers are byte-identical regardless of routing.
		self := Peer{ID: opt.SelfID, URL: opt.Gossip.SelfURL, Weight: opt.Gossip.Weight}
		c.view.Store(&ringView{
			ring:  NewRing([]Peer{self}, opt.VNodes),
			peers: map[string]Peer{opt.SelfID: self},
		})
		return c, nil
	}
	c.view.Store(&ringView{ring: NewRing(normalized, opt.VNodes), peers: byID})
	c.members = newMembership(opt.SelfID, normalized, opt.ProbeInterval,
		opt.ProbeTimeout, opt.DeadAfter, opt.AliveAfter, opt.Metrics, rt)
	return c, nil
}

// ParsePeers parses the -peers flag format: comma-separated id=url
// pairs, e.g. "a=http://h1:8080,b=http://h2:8080".
func ParsePeers(s string) ([]Peer, error) {
	var peers []Peer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("%w: bad peer %q (want id=url)", ErrConfig, part)
		}
		peers = append(peers, Peer{ID: strings.TrimSpace(id), URL: strings.TrimSpace(url)})
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("%w: empty peer list %q", ErrConfig, s)
	}
	return peers, nil
}

// Start begins membership maintenance — static health probing, or the
// gossip loop (join announcement to the seed contacts, then periodic
// probe/ping-req rounds) — and, when configured with an interval and a
// result store, the background anti-entropy loop.
func (c *Cluster) Start(ctx context.Context) {
	if c.gossip != nil {
		c.gossip.start(ctx)
	} else {
		c.members.start(ctx)
	}
	if c.aeInterval > 0 && c.results != nil && c.replicas > 1 {
		aeCtx, cancel := context.WithCancel(ctx)
		c.aeCancel = cancel
		c.aeDone = make(chan struct{})
		go func() {
			defer close(c.aeDone)
			t := time.NewTicker(c.aeInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					c.AntiEntropyNow(aeCtx)
				case <-aeCtx.Done():
					return
				}
			}
		}()
	}
}

// Close stops membership maintenance, the anti-entropy loop, and
// releases idle connections.
func (c *Cluster) Close() {
	if c.gossip != nil {
		c.gossip.stop()
	} else {
		c.members.stop()
	}
	if c.aeCancel != nil {
		c.aeCancel()
		<-c.aeDone
	}
	c.hc.CloseIdleConnections()
}

// Self returns this node's ID.
func (c *Cluster) Self() string { return c.self }

// Metrics returns the cluster's routing counters.
func (c *Cluster) Metrics() *Metrics { return c.metrics }

// Ring returns the current ownership ring (for tests and ownership
// stats). Under gossip the returned ring is one immutable generation;
// it does not track later membership changes.
func (c *Cluster) Ring() *Ring { return c.rv().ring }

// GossipEnabled reports whether this cluster runs dynamic membership.
func (c *Cluster) GossipEnabled() bool { return c.gossip != nil }

// Route is one routing decision for a spec hash.
type Route struct {
	// Owner is the true owner: first in rendezvous order over the full
	// static peer set, dead or alive.
	Owner string
	// Local reports that this node should compute the job itself.
	Local bool
	// Fallback reports that the serving node is not the true owner —
	// the owner was dead at route time, so the cluster trades the warm
	// cache for availability.
	Fallback bool
	// Targets are the forward candidates in rendezvous order (acting
	// owner first), set only when Local is false.
	Targets []Peer
}

// Route decides where the spec with the given content address runs:
// locally when this node is the first usable peer in rendezvous order,
// otherwise forwarded along Targets. Dead peers are skipped (degraded
// ones are not); if every peer looks dead the node serves locally, so
// the cluster can lose throughput but never availability.
func (c *Cluster) Route(hash string) Route {
	rv := c.rv()
	rank := rv.ring.Rank(hash)
	if len(rank) == 0 {
		// A draining singleton owns nothing, but something must answer:
		// availability beats drain purity, and the serve layer's drain
		// gate decides whether to admit.
		return Route{Owner: c.self, Local: true}
	}
	rt := Route{Owner: rank[0]}
	acting := c.self
	for _, id := range rank {
		if c.usable(id) {
			acting = id
			break
		}
	}
	rt.Fallback = acting != rt.Owner
	if acting == c.self {
		rt.Local = true
		return rt
	}
	started := false
	for _, id := range rank {
		if !started {
			if id != acting {
				continue
			}
			started = true
		}
		if id == c.self || !c.usable(id) {
			continue
		}
		rt.Targets = append(rt.Targets, rv.peers[id])
		if len(rt.Targets) == c.maxTargets {
			break
		}
	}
	return rt
}

// OwnershipStats summarizes the ring balance for GET /v1/cluster.
type OwnershipStats struct {
	Sample int                `json:"sample"`
	Shares map[string]float64 `json:"shares"`
}

// Status is the GET /v1/cluster payload: membership with live health,
// ownership balance, and the routing counters. Static clusters report
// Peers (probe-fed health); gossip clusters report Members — the live
// gossip view with state, incarnation, and last-heard round — plus the
// current protocol round and ring generation.
type Status struct {
	Self         string                `json:"self"`
	Mode         string                `json:"mode"`
	HedgeAfterMS float64               `json:"hedge_after_ms"`
	Peers        []PeerStatus          `json:"peers,omitempty"`
	Members      []gossip.MemberStatus `json:"members,omitempty"`
	GossipRound  uint64                `json:"gossip_round,omitempty"`
	RingGen      uint64                `json:"ring_generation,omitempty"`
	Ownership    OwnershipStats        `json:"ownership"`
	Counters     map[string]int64      `json:"counters"`
}

// Status snapshots the node's cluster view.
func (c *Cluster) Status() Status {
	const sample = 1024
	st := Status{
		Self:         c.self,
		Mode:         "static",
		HedgeAfterMS: float64(c.hedgeAfter) / float64(time.Millisecond),
		Ownership:    OwnershipStats{Sample: sample, Shares: c.rv().ring.Shares(sample)},
		Counters:     c.metrics.Counters(),
	}
	if c.gossip != nil {
		st.Mode = "gossip"
		st.Members = c.gossip.view.Snapshot()
		st.GossipRound = c.gossip.view.Round()
		st.RingGen = c.gossip.view.Gen()
		return st
	}
	st.Peers = c.members.snapshot()
	return st
}

// MetricsSnapshot renders the cluster block of GET /metrics: the
// routing counters plus a per-peer availability gauge (up: 1 when the
// peer may be routed to, 0 when dead/left).
func (c *Cluster) MetricsSnapshot() map[string]any {
	snap := make(map[string]any, 8)
	for k, v := range c.metrics.Counters() {
		snap[k] = v
	}
	peers := make(map[string]any, 4)
	if c.gossip != nil {
		for _, ms := range c.gossip.view.Snapshot() {
			up := 0
			if ms.State.Routable() {
				up = 1
			}
			peers[ms.ID] = map[string]any{
				"state":       string(ms.State),
				"up":          up,
				"incarnation": ms.Incarnation,
				"last_heard":  ms.LastHeardRound,
			}
		}
	} else {
		for _, ps := range c.members.snapshot() {
			up := 1
			if ps.Health == HealthDead {
				up = 0
			}
			peers[ps.ID] = map[string]any{
				"health":               string(ps.Health),
				"up":                   up,
				"consecutive_failures": ps.ConsecutiveFails,
			}
		}
	}
	snap["peers"] = peers
	return snap
}
