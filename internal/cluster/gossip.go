package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/gossip"
)

// GossipPath is the membership exchange endpoint. Every message is a
// push-pull of full views: the sender POSTs its records, the receiver
// merges them and answers with its own, so one round-trip converges
// both sides and join/leave/drain announcements ride the same channel
// as failure detection.
const GossipPath = "/v1/gossip"

// maxGossipBody bounds one gossip message (a full view of a large
// cluster is a few KiB; 1 MiB leaves two orders of magnitude of room).
const maxGossipBody = 1 << 20

// GossipMsg is the POST /v1/gossip request body.
type GossipMsg struct {
	// From names the sender, whose own record travels in Records.
	From string `json:"from"`
	// Records is the sender's full membership view.
	Records []gossip.Member `json:"records"`
	// PingReq, when set, asks the receiver to probe the named member on
	// the sender's behalf — SWIM's indirect probe, which keeps one
	// broken link from condemning a healthy node.
	PingReq *PingReq `json:"ping_req,omitempty"`
}

// PingReq names the target of an indirect probe.
type PingReq struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// GossipAck is the POST /v1/gossip response body.
type GossipAck struct {
	From    string          `json:"from"`
	Records []gossip.Member `json:"records"`
	// PingReqOK reports that the requested indirect probe reached its
	// target.
	PingReqOK bool `json:"ping_req_ok,omitempty"`
}

// gossipRunner drives the internal/gossip state machine over HTTP: the
// periodic probe/ping-req loop, the join announcement, ring rebuilds
// when the view's ring generation moves, and the handoff sweeps that
// migrate results to their new owners.
type gossipRunner struct {
	c        *Cluster
	view     *gossip.View
	interval time.Duration
	timeout  time.Duration
	seeds    []Peer // boot contacts, self excluded
	// rejoinAt is the round-robin cursor over seeds for the per-round
	// re-join of a seed held dead (loop goroutine only).
	rejoinAt int

	// mu serializes ring rebuilds and the view→metrics stat sync.
	mu        sync.Mutex
	lastGen   uint64
	lastRefut uint64
	lastSusp  uint64

	// sweepCh single-flights background handoff sweeps: a rebuild that
	// happens mid-sweep queues exactly one follow-up.
	sweepCh   chan struct{}
	cancel    context.CancelFunc
	done      chan struct{}
	sweepDone chan struct{}
}

// newGossipRunner builds the membership view — self plus every seed
// merged in alive at incarnation 0, the optimistic start that lets a
// cluster route the moment it boots — and the first ring over it. A
// fresher record (a peer that left or was declared dead at a higher
// incarnation) overrides a seed on the first exchange that carries it.
func newGossipRunner(c *Cluster, self string, opt GossipOptions, seeds []Peer) (*gossipRunner, error) {
	g := &gossipRunner{
		c:        c,
		interval: opt.Interval,
		timeout:  opt.ProbeTimeout,
		seeds:    seeds,
		sweepCh:  make(chan struct{}, 1),
	}
	if g.interval <= 0 {
		g.interval = 250 * time.Millisecond
	}
	if g.timeout <= 0 {
		g.timeout = time.Second
	}
	view, err := gossip.NewView(gossip.Config{
		SelfID:        self,
		SelfURL:       strings.TrimRight(opt.SelfURL, "/"),
		Weight:        opt.Weight,
		Seed:          opt.Seed,
		SuspectRounds: opt.SuspectRounds,
		PingReqFanout: opt.PingReqFanout,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	boot := make([]gossip.Member, len(seeds))
	for i, p := range seeds {
		boot[i] = gossip.Member{ID: p.ID, URL: p.URL, Weight: p.Weight, State: gossip.StateAlive}
	}
	view.Merge(boot)
	g.view = view
	g.rebuildRing()
	return g, nil
}

// draining reports whether this node has announced a drain.
func (g *gossipRunner) draining() bool {
	return g.view.Self().State == gossip.StateDraining
}

// start launches the protocol loop: an immediate join announcement to
// every seed contact, then one probe round per interval.
func (g *gossipRunner) start(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	g.cancel = cancel
	g.done = make(chan struct{})
	g.sweepDone = make(chan struct{})
	go g.sweepLoop(ctx)
	go func() {
		defer close(g.done)
		g.join(ctx)
		t := time.NewTicker(g.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				g.round(ctx)
			case <-ctx.Done():
				return
			}
		}
	}()
}

// stop ends the loops and waits for them to exit.
func (g *gossipRunner) stop() {
	if g.cancel == nil {
		return
	}
	g.cancel()
	<-g.done
	<-g.sweepDone
}

// join announces this node to every seed contact. Best effort: one
// reachable seed is enough (its merged view disseminates from there),
// and zero reachable seeds just means this node starts a cluster of one
// that others will join.
func (g *gossipRunner) join(ctx context.Context) {
	for _, p := range g.seeds {
		g.contact(ctx, p)
	}
	g.syncStats()
	g.maybeRebuild()
}

// contact runs one join exchange with a seed, best effort: an
// unreachable seed is retried by later rounds (see rejoinDead).
func (g *gossipRunner) contact(ctx context.Context, p Peer) {
	jctx, cancel := context.WithTimeout(ctx, g.timeout)
	_, err := g.exchange(jctx, p.URL, nil)
	cancel()
	_ = err
}

// round runs one protocol round: probe the next target in the seeded
// scan order, fall back to indirect ping-req probes through up to
// fanout proxies, and suspect the target when both fail. Every round
// then re-joins one seed this view holds dead (see rejoinDead).
func (g *gossipRunner) round(ctx context.Context) {
	_, target, ok := g.view.BeginRound()
	g.c.metrics.GossipRounds.Add(1)
	if ok {
		g.probe(ctx, target)
	}
	g.rejoinDead(ctx)
	g.syncStats()
	g.maybeRebuild()
}

// probe checks one target directly, then through ping-req proxies,
// and suspects it when neither answers.
func (g *gossipRunner) probe(ctx context.Context, target gossip.Member) {
	pctx, cancel := context.WithTimeout(ctx, g.timeout)
	_, err := g.exchange(pctx, target.URL, nil)
	cancel()
	if err == nil {
		return
	}
	for _, proxy := range g.view.PingReqProxies(target.ID) {
		ictx, icancel := context.WithTimeout(ctx, g.timeout)
		ack, ierr := g.exchange(ictx, proxy.URL, &PingReq{ID: target.ID, URL: target.URL})
		icancel()
		if ierr == nil && ack.PingReqOK {
			g.view.ObserveAlive(target.ID)
			return
		}
	}
	g.view.ObserveFailure(target.ID)
}

// rejoinDead sends the join exchange to the next seed, in -peers order
// round-robin, that this view holds dead. Nothing else ever contacts a
// dead member — probes, ping-req proxies, the ring and anti-entropy all
// skip it — so after a partition that outlived the suspicion window,
// with each side holding the other dead, this exchange is the only
// traffic that crosses the healed cut: it carries each side's verdict
// to the other, and the refutations in Merge restore both. It costs
// nothing while no seed is dead.
func (g *gossipRunner) rejoinDead(ctx context.Context) {
	for range g.seeds {
		p := g.seeds[g.rejoinAt%len(g.seeds)]
		g.rejoinAt++
		if st, ok := g.view.State(p.ID); ok && st == gossip.StateDead {
			g.contact(ctx, p)
			return
		}
	}
}

// exchange POSTs this node's view to url and merges the answer.
func (g *gossipRunner) exchange(ctx context.Context, url string, pr *PingReq) (GossipAck, error) {
	msg := GossipMsg{From: g.c.self, Records: g.view.Records(), PingReq: pr}
	body, err := json.Marshal(msg)
	if err != nil {
		return GossipAck{}, fmt.Errorf("cluster: marshal gossip: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(url, "/")+GossipPath, bytes.NewReader(body))
	if err != nil {
		return GossipAck{}, peerUnavailable(url, 0, err.Error())
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.c.hc.Do(req)
	if err != nil {
		return GossipAck{}, peerUnavailable(url, 0, err.Error())
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxGossipBody))
	if err != nil {
		return GossipAck{}, peerUnavailable(url, 0, "reading gossip ack: "+err.Error())
	}
	if resp.StatusCode != http.StatusOK {
		return GossipAck{}, peerUnavailable(url, resp.StatusCode, "gossip rejected")
	}
	var ack GossipAck
	if err := json.Unmarshal(raw, &ack); err != nil {
		return GossipAck{}, peerUnavailable(url, resp.StatusCode, "undecodable gossip ack: "+err.Error())
	}
	g.view.Merge(ack.Records)
	if ack.From != "" {
		g.view.ObserveAlive(ack.From)
	}
	return ack, nil
}

// handle answers one incoming exchange: merge the sender's records,
// run a requested indirect probe, reply with our view.
func (g *gossipRunner) handle(ctx context.Context, msg GossipMsg) GossipAck {
	g.view.Merge(msg.Records)
	if msg.From != "" {
		g.view.ObserveAlive(msg.From)
	}
	ack := GossipAck{From: g.c.self, Records: g.view.Records()}
	if pr := msg.PingReq; pr != nil && pr.ID != g.c.self && pr.URL != "" {
		pctx, cancel := context.WithTimeout(ctx, g.timeout)
		_, err := g.exchange(pctx, pr.URL, nil)
		cancel()
		if err == nil {
			g.view.ObserveAlive(pr.ID)
			ack.PingReqOK = true
			ack.Records = g.view.Records()
		}
	}
	g.syncStats()
	g.maybeRebuild()
	return ack
}

// syncStats mirrors the view's refutation/suspicion counts into the
// cluster metrics.
func (g *gossipRunner) syncStats() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if r := g.view.Refutations(); r > g.lastRefut {
		g.c.metrics.Refutations.Add(int64(r - g.lastRefut))
		g.lastRefut = r
	}
	if s := g.view.Suspected(); s > g.lastSusp {
		g.c.metrics.Suspected.Add(int64(s - g.lastSusp))
		g.lastSusp = s
	}
}

// maybeRebuild swaps in a new ring when the view's ring-eligible set
// changed since the last build, then queues a handoff sweep — results
// this node holds may have new homes under the new ranking.
func (g *gossipRunner) maybeRebuild() {
	if g.rebuildRing() {
		g.triggerSweep()
	}
}

// rebuildRing swaps in the ring over the view's current ring members
// and reports whether it did, i.e. whether the ring generation moved
// since the last build.
func (g *gossipRunner) rebuildRing() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	gen := g.view.Gen()
	if gen == g.lastGen {
		return false
	}
	g.lastGen = gen
	members := g.view.RingMembers()
	peers := make([]Peer, 0, len(members))
	byID := make(map[string]Peer, len(members))
	for _, m := range members {
		p := Peer{ID: m.ID, URL: strings.TrimRight(m.URL, "/"), Weight: m.Weight}
		peers = append(peers, p)
		byID[p.ID] = p
	}
	// A draining singleton yields an empty ring; Route's empty-rank
	// guard keeps the node answering locally.
	g.c.view.Store(&ringView{ring: NewRing(peers, g.c.vnodes), peers: byID})
	return true
}

// triggerSweep queues a background handoff sweep (single-flight).
func (g *gossipRunner) triggerSweep() {
	select {
	case g.sweepCh <- struct{}{}:
	default:
	}
}

// sweepLoop runs queued handoff sweeps until ctx ends.
func (g *gossipRunner) sweepLoop(ctx context.Context) {
	defer close(g.sweepDone)
	for {
		select {
		case <-ctx.Done():
			return
		case <-g.sweepCh:
			g.handoffSweep(ctx)
		}
	}
}

// handoffSweep re-offers every result this node holds to that result's
// current rightful holders (the first max(replicas,1) nodes in its
// rendezvous order under the live ring, self excluded). Receivers dedup
// — 201 means the result was actually missing at its new home and is
// counted as a migration; an unreachable or rejecting target counts as
// unplaced so a drain can retry until clean. So does every result a
// canceled sweep did not reach, and every held result when the ring is
// empty (this node drained out of it and no peer is in it) while some
// peer may yet return to take it: "no live target" is not "placed".
func (g *gossipRunner) handoffSweep(ctx context.Context) (migrated, unplaced int) {
	c := g.c
	if c.results == nil {
		return 0, 0
	}
	homeless := c.rv().ring.Len() == 0 && g.peerMayReturn()
	keys := c.results.Keys()
	for i, id := range keys {
		if ctx.Err() != nil {
			// An interrupted sweep has not placed what it did not reach.
			return migrated, unplaced + len(keys) - i
		}
		res, ok := c.results.Get(id)
		if !ok {
			continue
		}
		if homeless {
			unplaced++
			continue
		}
		for _, p := range c.handoffTargets(id) {
			if st, ok := g.view.State(p.ID); !ok || !st.Routable() {
				unplaced++
				continue
			}
			created, err := c.pushResult(ctx, p, res)
			if err != nil {
				c.metrics.HandoffFailed.Add(1)
				unplaced++
				continue
			}
			if created {
				c.metrics.HandoffMigrated.Add(1)
				migrated++
			}
		}
	}
	return migrated, unplaced
}

// peerMayReturn reports whether the view holds a peer that could yet
// take a handoff: one that is alive, suspect, or dead — a death verdict
// can be refuted. A peer that left, or is draining itself, never will,
// so a node whose every peer is gone that way is a true singleton and
// its drain is a clean no-op.
func (g *gossipRunner) peerMayReturn() bool {
	for _, m := range g.view.Records() {
		if m.ID != g.c.self && m.State != gossip.StateLeft && m.State != gossip.StateDraining {
			return true
		}
	}
	return false
}

// drain announces the drain, re-ranks the ring without this node, and
// migrates every held result to its new home, retrying until a full
// sweep places everything or ctx expires.
func (g *gossipRunner) drain(ctx context.Context) (int, error) {
	g.view.Drain()
	g.syncStats()
	g.maybeRebuild()
	g.announce(ctx)
	total := 0
	// One ticker for the whole retry loop: time.After here would leak a
	// timer per failed sweep until each fired.
	retry := time.NewTicker(g.interval)
	defer retry.Stop()
	for {
		migrated, unplaced := g.handoffSweep(ctx)
		total += migrated
		if unplaced == 0 {
			return total, nil
		}
		select {
		case <-ctx.Done():
			return total, fmt.Errorf("cluster: drain handoff incomplete, %d replica pushes unplaced: %w", unplaced, ctx.Err())
		case <-retry.C:
		}
	}
}

// announce pushes this node's view to every routable member — how a
// drain or leave reaches the whole cluster faster than probe-order
// dissemination would.
func (g *gossipRunner) announce(ctx context.Context) {
	for _, m := range g.view.Records() {
		if m.ID == g.c.self || !m.State.Routable() {
			continue
		}
		actx, cancel := context.WithTimeout(ctx, g.timeout)
		_, err := g.exchange(actx, m.URL, nil)
		cancel()
		_ = err // unreachable members learn the announcement by gossip
	}
}

// leave announces clean departure.
func (g *gossipRunner) leave(ctx context.Context) {
	g.view.Leave()
	g.syncStats()
	g.maybeRebuild()
	g.announce(ctx)
}

// HandleGossip folds one incoming POST /v1/gossip exchange into the
// membership view and returns the ack to send back. It is the serve
// layer's entry point.
func (c *Cluster) HandleGossip(ctx context.Context, msg GossipMsg) GossipAck {
	return c.gossip.handle(ctx, msg)
}

// Drain announces that this node is leaving the ring, migrates every
// held result to its new home, and returns the number of replicas
// actually created elsewhere. The node keeps serving (and finishing
// in-flight work) throughout — drain changes ownership, not liveness.
// An error means the handoff could not complete before ctx expired;
// results already replicated elsewhere are still safe, and anti-entropy
// on the survivors converges the rest.
func (c *Cluster) Drain(ctx context.Context) (int, error) {
	return c.gossip.drain(ctx)
}

// Draining reports whether this node has announced a drain.
func (c *Cluster) Draining() bool { return c.gossip.draining() }

// Leave announces clean departure to the cluster (best effort). Call
// after the final handoff, immediately before process exit.
func (c *Cluster) Leave(ctx context.Context) { c.gossip.leave(ctx) }

// HandoffNow runs one synchronous handoff sweep and returns the number
// of results newly placed elsewhere. The shutdown path calls it after
// the HTTP server has quiesced so results completed during the drain
// window migrate too.
func (c *Cluster) HandoffNow(ctx context.Context) int {
	migrated, _ := c.gossip.handoffSweep(ctx)
	return migrated
}
