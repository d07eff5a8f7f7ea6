// Package cluster turns N independent gapd processes into one sharded
// evaluation service. Membership is a SWIM-style gossip view
// (internal/gossip) seeded from the boot peer list: every listed peer
// starts alive, so a cluster routes the moment it boots, and from then
// on nodes join, drain, and leave at runtime, ownership re-ranks live as
// the view changes, and completed results migrate to their new owners
// over the replication endpoints instead of being recomputed. Ownership
// is rendezvous hashing over the job's content address (a pure function
// of the ring members and the spec hash, so every node agrees with zero
// coordination); requests for specs another node owns are forwarded over
// HTTP with hedged reads (race the owner against the next node in
// rendezvous order once it runs slow — exact, because evaluation is
// deterministic and content-addressed); and when the owner is suspect or
// dead the next node in order computes locally, trading warm-cache
// throughput for availability, never the reverse.
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
// reaches a job — but wrapping it keeps every exported
// cluster error classifiable with errors.Is, which gaplint's
// errtaxonomy analyzer enforces.
var ErrConfig = errors.New("cluster: invalid configuration")

// ForwardedHeader marks a request already proxied once by a peer. A
// receiving node serves such a request locally no matter who owns it —
// the one-hop loop guard that makes divergent health views safe.
const ForwardedHeader = "X-Gapd-Forwarded"

// Peer is one cluster member as listed at boot or ranked by the ring.
type Peer struct {
	// ID names the node (must be unique across the cluster).
	ID string `json:"id"`
	// URL is the node's base HTTP address (e.g. http://host:8080).
	URL string `json:"url"`
	// Weight scales the node's ownership share via virtual nodes
	// (default 1).
	Weight int `json:"weight,omitempty"`
}

// GossipOptions tunes the SWIM-style membership protocol.
type GossipOptions struct {
	// SelfURL is this node's advertised base HTTP address — what other
	// members will dial. It defaults to this node's own entry in Peers
	// and is required when Peers omits self.
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
	// SelfID names this node. Required.
	SelfID string
	// Peers seeds the membership view: every entry other than self
	// enters it alive at incarnation 0, so the first ring spans the
	// whole list, and the same entries are the contacts the join is
	// announced to. It may include self, omit self, or — for the first
	// node of a new cluster — be empty.
	Peers []Peer
	// Gossip tunes the membership protocol: probe/ping-req rounds over
	// POST /v1/gossip, incarnation-numbered alive/suspect/dead states,
	// live ring re-ranking, and ownership handoff on join/drain.
	Gossip GossipOptions
	// HedgeAfter is how long a forwarded request may sit unanswered
	// before a hedge is raced against the next node in rendezvous order
	// (default 50ms; negative disables hedging).
	HedgeAfter time.Duration
	// RequestTimeout caps one forwarded request (default 2 minutes).
	RequestTimeout time.Duration
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
// plus the peer records it ranks over. It is rebuilt and atomically
// swapped whenever the membership view's ring-eligible set changes, so
// routing reads are lock-free.
type ringView struct {
	ring  *Ring
	peers map[string]Peer
}

// Cluster is one node's view of the sharded service: the ownership
// ring, the gossip membership view, and the forwarding client.
type Cluster struct {
	self           string
	hedgeAfter     time.Duration
	maxTargets     int
	replicas       int
	vnodes         int
	aeInterval     time.Duration
	deadlineMargin time.Duration
	view           atomic.Pointer[ringView]
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

// usable reports whether id may be routed to: self always, a peer only
// while the view holds it alive. A suspect keeps its ring slot — the
// ranking and every warm cache stay put — but routing skips it until a
// probe ack or its own refutation clears the suspicion.
func (c *Cluster) usable(id string) bool {
	if id == c.self {
		return true
	}
	st, ok := c.gossip.view.State(id)
	return ok && st == gossip.StateAlive
}

// reportSuccess is the passive health signal from a successful peer
// request.
func (c *Cluster) reportSuccess(id string) { c.gossip.view.ObserveAlive(id) }

// reportFailure is the passive health signal from a failed peer
// request: it opens the suspicion window. The member stays in the ring
// and has SuspectRounds to refute via incarnation bump before being
// declared dead.
func (c *Cluster) reportFailure(id string) {
	if c.gossip.view.ObserveFailure(id) {
		c.gossip.syncStats()
	}
}

// New validates opt and builds the node's cluster view, seeded with
// every listed peer alive. Call Start to begin the gossip loop, and
// Close to stop.
func New(opt Options) (*Cluster, error) {
	if opt.SelfID == "" {
		return nil, fmt.Errorf("%w: a cluster node requires an id", ErrConfig)
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
	if opt.Gossip.SelfURL == "" {
		opt.Gossip.SelfURL = byID[opt.SelfID].URL
	}
	if opt.Gossip.SelfURL == "" {
		return nil, fmt.Errorf("%w: node %q is not in the peer list and has no advertised URL", ErrConfig, opt.SelfID)
	}
	if opt.HedgeAfter == 0 {
		opt.HedgeAfter = 50 * time.Millisecond
	}
	if opt.RequestTimeout <= 0 {
		opt.RequestTimeout = 2 * time.Minute
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
	if opt.Replicas <= 0 {
		opt.Replicas = 1
	}
	if opt.DeadlineMargin <= 0 {
		opt.DeadlineMargin = 10 * time.Millisecond
	}
	seeds := make([]Peer, 0, len(byID))
	for _, p := range opt.Peers {
		if p.ID != opt.SelfID {
			seeds = append(seeds, byID[p.ID])
		}
	}
	// One shared transport for every peer-facing request — forwards,
	// gossip, replication, replica reads — so a netfault wrapper sees
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
	g, err := newGossipRunner(c, opt.SelfID, opt.Gossip, seeds)
	if err != nil {
		return nil, err
	}
	c.gossip = g
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

// Start begins the gossip loop (join announcement to the seed
// contacts, then periodic probe/ping-req rounds) and, when configured
// with an interval and a result store, the background anti-entropy loop.
func (c *Cluster) Start(ctx context.Context) {
	c.gossip.start(ctx)
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

// Close stops the gossip loop, the anti-entropy loop, and releases idle
// connections.
func (c *Cluster) Close() {
	c.gossip.stop()
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
// stats). The returned ring is one immutable generation; it does not
// track later membership changes.
func (c *Cluster) Ring() *Ring { return c.rv().ring }

// Route is one routing decision for a spec hash.
type Route struct {
	// Owner is the true owner: first in rendezvous order over the
	// current ring, suspect or alive.
	Owner string
	// Local reports that this node should compute the job itself.
	Local bool
	// Fallback reports that the serving node is not the true owner —
	// the owner was suspect at route time, so the cluster trades the
	// warm cache for availability.
	Fallback bool
	// Targets are the forward candidates in rendezvous order (acting
	// owner first), set only when Local is false.
	Targets []Peer
}

// Route decides where the spec with the given content address runs:
// locally when this node is the first usable peer in rendezvous order,
// otherwise forwarded along Targets. Suspect peers are skipped (dead
// ones have already left the ring); if every peer is suspect the node
// serves locally, so the cluster can lose throughput but never
// availability.
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

// Status is the GET /v1/cluster payload: the gossip view — every
// member with state, incarnation, and last-heard round — the current
// protocol round and ring generation, ownership balance, and the routing
// counters.
type Status struct {
	Self         string                `json:"self"`
	HedgeAfterMS float64               `json:"hedge_after_ms"`
	Members      []gossip.MemberStatus `json:"members"`
	GossipRound  uint64                `json:"gossip_round"`
	RingGen      uint64                `json:"ring_generation"`
	Ownership    OwnershipStats        `json:"ownership"`
	Counters     map[string]int64      `json:"counters"`
}

// Status snapshots the node's cluster view.
func (c *Cluster) Status() Status {
	const sample = 1024
	v := c.gossip.view
	return Status{
		Self:         c.self,
		HedgeAfterMS: float64(c.hedgeAfter) / float64(time.Millisecond),
		Members:      v.Snapshot(),
		GossipRound:  v.Round(),
		RingGen:      v.Gen(),
		Ownership:    OwnershipStats{Sample: sample, Shares: c.rv().ring.Shares(sample)},
		Counters:     c.metrics.Counters(),
	}
}

// MetricsSnapshot renders the cluster block of GET /metrics: the
// routing counters plus a per-member availability gauge (up: 1 when the
// member may be sent traffic, 0 when dead/left).
func (c *Cluster) MetricsSnapshot() map[string]any {
	snap := make(map[string]any, 8)
	for k, v := range c.metrics.Counters() {
		snap[k] = v
	}
	peers := make(map[string]any, 4)
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
	snap["peers"] = peers
	return snap
}
