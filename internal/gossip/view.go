package gossip

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Config seeds a View.
type Config struct {
	// SelfID / SelfURL identify and advertise this node. SelfURL is what
	// other members will dial, so in multi-process deployments it must
	// be the externally reachable address, not the listen address.
	SelfID  string
	SelfURL string
	// Weight is this node's rendezvous weight (share of ownership).
	// Zero means default weight.
	Weight int
	// Seed drives every probe-order and proxy-pick decision. Two views
	// with the same seed observing the same membership events make the
	// same choices in the same order.
	Seed int64
	// SuspectRounds is how many protocol rounds a suspect member has to
	// refute before it is declared dead. Zero means DefaultSuspectRounds.
	SuspectRounds int
	// PingReqFanout is how many proxies an indirect probe goes through.
	// Zero means DefaultPingReqFanout.
	PingReqFanout int
}

// Defaults for Config zero values.
const (
	DefaultSuspectRounds = 4
	DefaultPingReqFanout = 2
)

// View is one node's membership view: its own record plus everything it
// has heard about its peers, keyed by member ID. All methods are
// safe for concurrent use. The view is advanced by rounds, not by time:
// the caller (internal/cluster's gossip loop) decides how often a round
// happens; the view only decides what happens in it. That split is what
// makes the protocol unit-testable under the determinism policy — tests
// call BeginRound in a plain loop and every outcome is reproducible.
type View struct {
	mu      sync.Mutex
	self    string
	seed    int64
	susRnds int
	fanout  int

	members map[string]Member
	// lastHeard is the round at which we last got direct evidence about
	// a member: a successful probe, a gossip exchange with it, or a
	// record bearing a new incarnation/state.
	lastHeard map[string]uint64
	// suspectAt is the round a member entered suspect state; after
	// susRnds more rounds without refutation it is declared dead.
	suspectAt map[string]uint64

	round uint64
	// gen increments whenever the ring-eligible set (or a member URL or
	// weight inside it) changes; the cluster layer compares it to decide
	// when to rebuild the rendezvous ring.
	gen uint64

	// probe order: a seeded permutation of the routable peers, consumed
	// one per round and reshuffled when exhausted or when the peer set
	// changes — SWIM's round-robin-with-random-order scan, which bounds
	// worst-case detection time at one full cycle.
	order    []string
	orderIdx int
	// perm counts reshuffles so each cycle draws from a fresh seeded
	// stream: cycle k shuffles with seed^k mixed, reproducibly.
	perm uint64

	refutations uint64
	suspected   uint64
}

// NewView builds a view containing only the self record (alive,
// incarnation 0). Everything else enters through Merge — including a
// boot list the caller chooses to start from (internal/cluster merges
// its seed peers as alive incarnation-0 records, which any fresher
// record about them then overrides).
func NewView(cfg Config) (*View, error) {
	if cfg.SelfID == "" {
		return nil, fmt.Errorf("gossip: config requires SelfID")
	}
	v := &View{
		self:      cfg.SelfID,
		seed:      cfg.Seed,
		susRnds:   cfg.SuspectRounds,
		fanout:    cfg.PingReqFanout,
		members:   make(map[string]Member),
		lastHeard: make(map[string]uint64),
		suspectAt: make(map[string]uint64),
	}
	if v.susRnds <= 0 {
		v.susRnds = DefaultSuspectRounds
	}
	if v.fanout <= 0 {
		v.fanout = DefaultPingReqFanout
	}
	v.members[cfg.SelfID] = Member{
		ID:     cfg.SelfID,
		URL:    cfg.SelfURL,
		Weight: cfg.Weight,
		State:  StateAlive,
	}
	v.gen = 1
	return v, nil
}

// Self returns this node's current record.
func (v *View) Self() Member {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.members[v.self]
}

// Round returns the current protocol round.
func (v *View) Round() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.round
}

// Gen returns the ring generation: it changes exactly when RingMembers
// would return a different set (or different URLs/weights within it).
func (v *View) Gen() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.gen
}

// Refutations returns how many times this view bumped its own
// incarnation to override a peer's claim about it.
func (v *View) Refutations() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.refutations
}

// Suspected returns how many alive→suspect transitions this view has
// recorded (locally observed or merged).
func (v *View) Suspected() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.suspected
}

// BeginRound advances the protocol one round: suspects past their
// refutation window are declared dead, and the next probe target is
// drawn from the seeded scan order. ok is false when there is no peer
// to probe (singleton cluster, or everyone dead/left).
func (v *View) BeginRound() (round uint64, target Member, ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.round++

	// Expire suspicion. Same incarnation, dead outranks suspect — any
	// node holding a fresher record will override this verdict on merge.
	for id, at := range v.suspectAt {
		m := v.members[id]
		if m.State != StateSuspect {
			delete(v.suspectAt, id)
			continue
		}
		if v.round-at >= uint64(v.susRnds) {
			m.State = StateDead
			v.members[id] = m
			delete(v.suspectAt, id)
			v.bumpGenLocked()
		}
	}

	id, found := v.nextProbeLocked()
	if !found {
		return v.round, Member{}, false
	}
	return v.round, v.members[id], true
}

// nextProbeLocked draws the next routable peer from the scan order,
// reshuffling a fresh seeded permutation when the current one is
// exhausted or no longer matches the routable set.
func (v *View) nextProbeLocked() (string, bool) {
	eligible := make([]string, 0, len(v.members))
	for id, m := range v.members {
		if id != v.self && m.State.Routable() {
			eligible = append(eligible, id)
		}
	}
	if len(eligible) == 0 {
		return "", false
	}
	sort.Strings(eligible)
	if v.orderIdx >= len(v.order) || !sameSet(v.order, eligible) {
		v.order = append([]string(nil), eligible...)
		v.perm++
		r := rand.New(rand.NewSource(v.seed ^ int64(v.perm*0x9e3779b97f4a7c15)))
		r.Shuffle(len(v.order), func(i, j int) { v.order[i], v.order[j] = v.order[j], v.order[i] })
		v.orderIdx = 0
	}
	id := v.order[v.orderIdx]
	v.orderIdx++
	return id, true
}

// sameSet reports whether order (any order) and eligible (sorted)
// contain the same IDs.
func sameSet(order, eligible []string) bool {
	if len(order) != len(eligible) {
		return false
	}
	s := append([]string(nil), order...)
	sort.Strings(s)
	for i := range s {
		if s[i] != eligible[i] {
			return false
		}
	}
	return true
}

// PingReqProxies picks up to PingReqFanout routable peers (excluding
// self and the unreachable target) to relay an indirect probe through.
// The pick is a pure function of the seed and the current round.
func (v *View) PingReqProxies(target string) []Member {
	v.mu.Lock()
	defer v.mu.Unlock()
	var ids []string
	for id, m := range v.members {
		if id != v.self && id != target && m.State.Routable() {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	r := rand.New(rand.NewSource(v.seed ^ int64(v.round*0xbf58476d1ce4e5b9)))
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if len(ids) > v.fanout {
		ids = ids[:v.fanout]
	}
	out := make([]Member, 0, len(ids))
	for _, id := range ids {
		out = append(out, v.members[id])
	}
	return out
}

// ObserveAlive records direct positive evidence about a member: a probe
// ack or a gossip exchange it answered. A suspect observed alive is
// cleared at the same incarnation — direct evidence beats hearsay we
// ourselves produced; a remote suspicion still needs the member's own
// incarnation bump to clear, which Merge handles.
func (v *View) ObserveAlive(id string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	m, known := v.members[id]
	if !known || id == v.self {
		return
	}
	v.lastHeard[id] = v.round
	if m.State == StateSuspect {
		m.State = StateAlive
		v.members[id] = m
		delete(v.suspectAt, id)
		// suspect and alive are both InRing; the ring is unchanged.
	}
}

// ObserveFailure records a failed probe (direct and indirect both
// exhausted): an alive or draining member becomes suspect and its
// refutation window opens. Returns true when this observation newly
// suspected the member.
func (v *View) ObserveFailure(id string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	m, known := v.members[id]
	if !known || id == v.self {
		return false
	}
	if m.State != StateAlive && m.State != StateDraining {
		return false
	}
	wasInRing := m.State.InRing()
	m.State = StateSuspect
	v.members[id] = m
	v.suspectAt[id] = v.round
	v.suspected++
	if wasInRing != m.State.InRing() {
		v.bumpGenLocked()
	}
	return true
}

// Merge folds a batch of remote records into the view under the SWIM
// precedence rules and returns whether anything changed. Records about
// self never overwrite the self record: if a remote claim would outrank
// ours (a suspicion to refute, a stale dead/left verdict to rejoin
// past), we bump our incarnation above it and keep our own state — the
// bumped record then wins everywhere on the next exchange.
func (v *View) Merge(records []Member) (changed bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, r := range records {
		if r.Validate() != nil {
			continue
		}
		if r.ID == v.self {
			if v.refuteLocked(r) {
				changed = true
			}
			continue
		}
		cur, known := v.members[r.ID]
		if known && !overrides(r, cur) {
			continue
		}
		if !known && (r.State == StateLeft || r.State == StateDead) {
			// Learning that a node we never knew is gone changes
			// nothing we route on; record it only so a later stale
			// alive record cannot resurrect it through us.
			v.members[r.ID] = r
			continue
		}
		wasInRing := known && cur.State.InRing()
		v.members[r.ID] = r
		v.lastHeard[r.ID] = v.round
		if r.State == StateSuspect {
			if _, already := v.suspectAt[r.ID]; !already {
				v.suspectAt[r.ID] = v.round
				v.suspected++
			}
		} else {
			delete(v.suspectAt, r.ID)
		}
		if wasInRing != r.State.InRing() ||
			(r.State.InRing() && known && (cur.URL != r.URL || cur.Weight != r.Weight)) ||
			(!known && r.State.InRing()) {
			v.bumpGenLocked()
		}
		changed = true
	}
	return changed
}

// refuteLocked handles a remote record about self. Any claim at our
// incarnation or above that differs from our own view of ourselves is
// outranked by bumping past it; stale claims are ignored.
func (v *View) refuteLocked(r Member) bool {
	mine := v.members[v.self]
	if r.Incarnation < mine.Incarnation {
		return false
	}
	if r.Incarnation == mine.Incarnation && r.State.precedence() <= mine.State.precedence() {
		return false
	}
	mine.Incarnation = r.Incarnation + 1
	v.members[v.self] = mine
	v.refutations++
	return true
}

// Drain marks self as draining with a fresh incarnation: the
// announcement outranks every alive record peers hold, so the next
// gossip exchange removes us from every ring. Idempotent.
func (v *View) Drain() Member {
	return v.announce(StateDraining)
}

// Leave marks self as cleanly departed with a fresh incarnation. The
// record persists in peers' views so a crashed-and-wiped rejoin under
// the same ID is forced to bump past it (see refuteLocked) instead of
// resurrecting at incarnation zero with a stale view.
func (v *View) Leave() Member {
	return v.announce(StateLeft)
}

func (v *View) announce(s State) Member {
	v.mu.Lock()
	defer v.mu.Unlock()
	mine := v.members[v.self]
	if mine.State != s {
		wasInRing := mine.State.InRing()
		mine.State = s
		mine.Incarnation++
		v.members[v.self] = mine
		if wasInRing != s.InRing() {
			v.bumpGenLocked()
		}
	}
	return mine
}

// bumpGenLocked notes a change to the ring-eligible set.
func (v *View) bumpGenLocked() { v.gen++ }

// State returns a member's current state, or ok=false for an ID the
// view has never heard of.
func (v *View) State(id string) (State, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	m, ok := v.members[id]
	return m.State, ok
}

// Records returns every record in the view (self included), sorted by
// ID — the payload of a push-pull gossip exchange.
func (v *View) Records() []Member {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]Member, 0, len(v.members))
	for _, m := range v.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RingMembers returns the members that currently participate in
// rendezvous ownership (self included when eligible), sorted by ID.
func (v *View) RingMembers() []Member {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]Member, 0, len(v.members))
	for _, m := range v.members {
		if m.State.InRing() {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MemberStatus is one row of Snapshot: the record plus observability
// fields that are not part of the protocol.
type MemberStatus struct {
	Member
	// LastHeardRound is the protocol round at which this view last got
	// direct evidence about the member (zero for self and for members
	// never directly heard from).
	LastHeardRound uint64 `json:"last_heard_round"`
	// AsOf is a display-only wall timestamp for the snapshot; protocol
	// decisions never read it.
	AsOf time.Time `json:"as_of"`
}

// Snapshot returns the full view for /v1/cluster, sorted by ID.
func (v *View) Snapshot() []MemberStatus {
	ts := now()
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]MemberStatus, 0, len(v.members))
	for _, m := range v.members {
		out = append(out, MemberStatus{Member: m, LastHeardRound: v.lastHeard[m.ID], AsOf: ts})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
