package cluster

import "sort"

// Ownership is rendezvous (highest-random-weight) hashing over the job's
// content address: every node, given only the ring members and a spec
// hash, computes the same owner with zero coordination. Removing a peer
// remaps only the keys that peer owned — every other key keeps its owner
// (and therefore its warm cache entry). Virtual nodes smooth the split
// and implement capacity weighting: a peer with Weight w holds w times
// the virtual nodes and so wins ~w times the key space.
//
// The hot path is Owner: one FNV-1a pass over the key, then one cheap
// integer mix per virtual node against precomputed per-vnode hashes.
// Nothing allocates, so a lookup stays deep in sub-microsecond territory
// (see BenchmarkOwnerLookup).

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211

	// DefaultVNodes is the virtual-node multiplier per unit of peer
	// weight. 16 vnodes/peer keeps the worst-case share skew of an
	// unweighted ring within a few percent without slowing Owner.
	DefaultVNodes = 16
)

// fnv64a hashes s with FNV-1a (allocation-free).
func fnv64a(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection used to
// combine a precomputed vnode hash with the key hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Ring is an immutable rendezvous-hash view of a peer set. Construction
// sorts peers by ID, so two rings built from any permutation of the same
// peer set are identical — the property that makes ownership a pure
// function of (peer set, key).
type Ring struct {
	ids     []string
	vhashes [][]uint64 // per peer: precomputed hash per virtual node
}

// NewRing builds a ring over peers with vnodesPerWeight virtual nodes
// per unit of weight (<=0 selects DefaultVNodes; a peer's Weight <=0
// counts as 1).
func NewRing(peers []Peer, vnodesPerWeight int) *Ring {
	if vnodesPerWeight <= 0 {
		vnodesPerWeight = DefaultVNodes
	}
	sorted := append([]Peer(nil), peers...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	r := &Ring{
		ids:     make([]string, len(sorted)),
		vhashes: make([][]uint64, len(sorted)),
	}
	for i, p := range sorted {
		w := p.Weight
		if w <= 0 {
			w = 1
		}
		vh := make([]uint64, w*vnodesPerWeight)
		base := fnv64a(p.ID)
		for v := range vh {
			vh[v] = mix64(base + uint64(v)*0x9e3779b97f4a7c15)
		}
		r.ids[i] = p.ID
		r.vhashes[i] = vh
	}
	return r
}

// Len reports the number of peers on the ring.
func (r *Ring) Len() int { return len(r.ids) }

// Peers returns the ring's peer IDs in sorted order.
func (r *Ring) Peers() []string { return append([]string(nil), r.ids...) }

// score is the peer's HRW score for a pre-hashed key: the max over its
// virtual nodes of the mixed (vnode, key) hash.
func (r *Ring) score(i int, keyHash uint64) uint64 {
	best := uint64(0)
	for _, vh := range r.vhashes[i] {
		if s := mix64(vh ^ keyHash); s > best {
			best = s
		}
	}
	return best
}

// Owner returns the peer that owns key: the highest HRW score, ties
// broken by the smaller ID (ids are sorted, so the first winner stands).
// Owner is the allocation-free hot path.
func (r *Ring) Owner(key string) string {
	if len(r.ids) == 0 {
		return ""
	}
	kh := fnv64a(key)
	bestIdx, bestScore := 0, r.score(0, kh)
	for i := 1; i < len(r.ids); i++ {
		if s := r.score(i, kh); s > bestScore {
			bestIdx, bestScore = i, s
		}
	}
	return r.ids[bestIdx]
}

// Rank returns every peer in descending HRW order for key: Rank[0] is
// the owner, Rank[1] the first fallback/hedge target, and so on. The
// order is the same on every node, which is what lets a hedged read race
// the owner against "the next node in rendezvous order" without
// coordination.
func (r *Ring) Rank(key string) []string {
	kh := fnv64a(key)
	type scored struct {
		id    string
		score uint64
	}
	s := make([]scored, len(r.ids))
	for i, id := range r.ids {
		s[i] = scored{id, r.score(i, kh)}
	}
	sort.Slice(s, func(i, j int) bool {
		if s[i].score != s[j].score {
			return s[i].score > s[j].score
		}
		return s[i].id < s[j].id
	})
	out := make([]string, len(s))
	for i := range s {
		out[i] = s[i].id
	}
	return out
}

// Shares estimates each peer's ownership fraction by ranking sample
// synthetic keys — the balance figure GET /v1/cluster reports.
func (r *Ring) Shares(sample int) map[string]float64 {
	if sample <= 0 {
		sample = 1024
	}
	counts := make(map[string]int, len(r.ids))
	var key [24]byte
	for i := 0; i < sample; i++ {
		n := i
		k := key[:0]
		k = append(k, "share-"...)
		for {
			k = append(k, byte('a'+n%16))
			n /= 16
			if n == 0 {
				break
			}
		}
		counts[r.Owner(string(k))]++
	}
	shares := make(map[string]float64, len(r.ids))
	for _, id := range r.ids {
		shares[id] = float64(counts[id]) / float64(sample)
	}
	return shares
}
