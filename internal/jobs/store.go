package jobs

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"

	"repro/internal/cas"
)

// This file is the glue between the pool and the disk tier
// (internal/cas): results are persisted as content-addressed records —
// the canonical spec hash is the address, the result's stored bytes are
// the body — so a restart rebuilds the full result corpus from the
// segment index without recomputing anything, and the RAM cache
// becomes a promotion tier over the store rather than the only copy.

// Store returns the pool's disk-tier result store, or nil when the
// pool runs RAM-only.
func (p *Pool) Store() *cas.Store { return p.store }

// storeGet reads the stored result for a content address.
func (p *Pool) storeGet(id string) (*Stored, bool) {
	st, err := p.storeGetE(id)
	return st, err == nil
}

// storeGetE is storeGet with the failure class preserved: ErrNotFound
// for an absent address, anything else for a record that existed but
// failed verification — the signal Serve routes through read-repair.
// The store verifies CRC and SHA-256 on read, and the record's digest
// is the body's, so nothing is re-hashed or re-encoded here; this layer
// additionally rejects a body whose id disagrees with its address, so
// stored bytes can never surface under the wrong key.
func (p *Pool) storeGetE(id string) (*Stored, error) {
	if p.store == nil {
		return nil, cas.ErrNotFound
	}
	rec, err := p.store.GetRecord(id)
	if err != nil {
		return nil, err
	}
	st, err := FromBytes(rec.Body, hex.EncodeToString(rec.Digest[:]), id)
	if err != nil {
		// The bytes verified but the body is wrong — a writer bug, not
		// bit rot. Counted as a CAS error and treated as corrupt so the
		// repair path can fetch a sane copy.
		p.metrics.CASErrors.Add(1)
		return nil, fmt.Errorf("cas: stored body does not decode to its address %s: %v", id[:min(12, len(id))], err)
	}
	return st, nil
}

// persistResult makes a published result durable. The CAS store is the
// only place a result body lives: with a store, the stored bytes go in
// (fsynced) and only then does the journal get its slim "stored"
// pointer. A failed put counts a CAS error and writes no pointer, so the
// job's accept stays pending and the next boot recomputes the result and
// stores it. Without a store the pointer is written at once: it closes
// the accept, and the result recomputes on demand after a restart.
func (p *Pool) persistResult(st *Stored) {
	if p.store != nil {
		if err := p.store.Put(st.ID, st.Body); err != nil {
			p.metrics.CASErrors.Add(1)
			return
		}
	}
	p.journalStored(st.ID)
}

// SetReadRepair installs the read-repair hook — in production, the
// cluster layer's replica fetch (digest and content-address verified
// on its side of the wire). When a store read finds a corrupt or
// quarantined record, Serve consults the hook before admitting a
// recompute; a repaired result is re-verified, re-Put into the local
// store (clearing the quarantine), and served as a repair. Install
// before traffic starts; a nil hook disables repair.
func (p *Pool) SetReadRepair(fn func(ctx context.Context, id string) (*Stored, bool)) {
	p.mu.Lock()
	p.repair = fn
	p.mu.Unlock()
}

// readRepair runs the installed hook for id and adopts the fetched
// result after verifying it the same way StoreResult verifies a
// replica write: the payload's canonical spec must hash to the
// address. Adoption persists the body (the re-Put that heals the
// quarantine) and promotes it to RAM.
func (p *Pool) readRepair(ctx context.Context, id string) (*Stored, bool) {
	p.mu.Lock()
	fn := p.repair
	p.mu.Unlock()
	if fn == nil {
		return nil, false
	}
	fetched, ok := fn(ctx, id)
	if !ok || fetched == nil || fetched.ID != id {
		return nil, false
	}
	res, err := fetched.Result()
	if err == nil {
		err = verifyAddress(res)
	}
	if err != nil {
		p.metrics.CASErrors.Add(1)
		return nil, false
	}
	st, err := p.publish(res)
	if err != nil {
		p.metrics.CASErrors.Add(1)
		return nil, false
	}
	return st, true
}

// probeCorrupt classifies a failed store read: true when the address
// held a record that failed verification, or is still quarantined from
// an earlier condemnation (by scrub, read, or compaction) — the cases
// where a replica fetch should precede a recompute.
func (p *Pool) probeCorrupt(readErr error, id string) bool {
	if p.store == nil {
		return false
	}
	if readErr != nil && !errors.Is(readErr, cas.ErrNotFound) {
		return true
	}
	return p.store.Quarantined(id)
}

// HasStored reports whether the id resolves in RAM or on disk without
// reading the body — the cheap membership check replica GETs use.
func (p *Pool) HasStored(id string) bool {
	if _, ok := p.cache.Get(id); ok {
		return true
	}
	return p.store != nil && p.store.Has(id)
}

// StoredView is the cluster-facing result set: the union of the RAM
// cache and the disk store. It satisfies the cluster layer's ResultStore
// contract structurally (jobs does not import cluster), so anti-entropy
// repair and ownership handoff walk the full durable corpus, not just
// what happens to be hot in RAM.
type StoredView struct{ p *Pool }

// StoredView returns the pool's cluster-facing result set.
func (p *Pool) StoredView() *StoredView { return &StoredView{p: p} }

// Keys snapshots every stored content address, deduplicated and sorted
// for deterministic repair sweeps.
func (v *StoredView) Keys() []string {
	seen := map[string]bool{}
	var keys []string
	for _, k := range v.p.cache.Keys() {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	if v.p.store != nil {
		for _, k := range v.p.store.Keys() { // already sorted
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// Get resolves a content address from RAM or disk, the two places a
// result lives — the read path behind GET /v1/results/{id}, replica
// fetches and repair sweeps.
func (v *StoredView) Get(id string) (*Stored, bool) {
	if st, ok := v.p.cache.Get(id); ok {
		return st, true
	}
	return v.p.storeGet(id)
}
