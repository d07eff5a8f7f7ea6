package cas

import (
	"fmt"
	"sort"
)

// The scrubber walks the live record set in deterministic (segment id,
// offset) order, re-reading and fully verifying each record — header
// CRC, body CRC, SHA-256 body digest, and agreement with the index —
// so a bit that rots in a cold segment is found on the next pass, not
// on the next unlucky read. A record that fails verification is
// dropped from the index (its bytes become dead), quarantined in the
// scrub report, and a compaction is triggered to rewrite the damaged
// segment; the quarantine entry is cleared — and counted
// scrub_repaired — when a verified copy is re-Put under the same
// address by read-repair or recompute.
//
// Determinism: ScrubStep is a pure function of the operation sequence
// and the seed. The only randomness is the seeded choice of where the
// very first pass begins (so a fleet of stores does not scrub the same
// region in lockstep); pacing — how often steps run — is the caller's
// business (cmd/gapd drives it from a ticker), keeping this package
// free of wall-clock reads per the gaplint determinism policy.

// scrubPos orders records for the cursor walk.
type scrubPos struct {
	seg uint32
	off int64
}

func (p scrubPos) less(q scrubPos) bool {
	if p.seg != q.seg {
		return p.seg < q.seg
	}
	return p.off < q.off
}

// ScrubProgress summarizes one ScrubStep call.
type ScrubProgress struct {
	// Scanned counts records read and verified (or failed) this step.
	Scanned int
	// Corrupt counts records that failed verification this step.
	Corrupt int
	// PassComplete reports that this step reached the end of the live
	// set; the next step begins a fresh pass from the first record.
	PassComplete bool
}

// QuarantineEntry is one corrupt record awaiting repair: where it was
// found and why it was condemned. Entries persist across compactions
// (the damaged bytes are gone, the obligation to heal the address is
// not) until a verified copy is re-Put.
type QuarantineEntry struct {
	Addr    string `json:"addr"`
	Segment uint32 `json:"segment"`
	Offset  int64  `json:"offset"`
	Reason  string `json:"reason"`
}

// VerifyRecord is the scrubber's per-record verdict: buf must decode
// as a complete, CRC- and digest-clean record whose content address is
// addr. A nil return means the bytes are serviceable; any error means
// the record must be quarantined, classified by the codec error
// taxonomy (ErrShortRecord, ErrBadMagic, ErrHeaderCRC, ErrBodyCRC,
// ErrDigestMismatch, ErrBadAddress).
func VerifyRecord(buf []byte, addr string) error {
	rec, _, err := DecodeRecord(buf)
	if err != nil {
		return err
	}
	if rec.Addr != addr {
		return fmt.Errorf("%w: record holds %s, index expected %s", ErrBadAddress, rec.Addr, addr)
	}
	return nil
}

// ScrubStep verifies up to maxRecords live records, advancing the
// cursor; it is the unit of work a pacing loop schedules. Corrupt
// records are dropped, quarantined, and — if any were found — a
// background compaction is triggered to rewrite the damaged segments.
// Safe to call concurrently with Puts, Gets, and compaction: a record
// the index no longer points at (superseded or moved mid-step) is
// skipped, not condemned.
func (s *Store) ScrubStep(maxRecords int) ScrubProgress {
	var pr ScrubProgress
	if s == nil || maxRecords <= 0 {
		return pr
	}
	s.scrubMu.Lock()
	defer s.scrubMu.Unlock()

	// Snapshot the live set in cursor order.
	type target struct {
		addr string
		loc  recordLoc
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return pr
	}
	live := make([]target, 0, len(s.index))
	for addr, loc := range s.index {
		live = append(live, target{addr, loc})
	}
	s.mu.Unlock()
	sort.Slice(live, func(i, j int) bool {
		return scrubPos{live[i].loc.seg, live[i].loc.off}.less(scrubPos{live[j].loc.seg, live[j].loc.off})
	})

	endPass := func() {
		s.scrubInPass = false
		s.scrubPasses.Add(1)
		pr.PassComplete = true
	}
	if len(live) == 0 {
		if s.scrubInPass {
			endPass()
		}
		return pr
	}

	start := 0
	switch {
	case s.scrubInPass:
		// Resume after the cursor. Everything at or before it was
		// either verified or has moved (a moved record is re-verified
		// next pass at its new position).
		cur := s.scrubCursor
		start = sort.Search(len(live), func(i int) bool {
			return cur.less(scrubPos{live[i].loc.seg, live[i].loc.off})
		})
		if start >= len(live) {
			endPass()
			return pr
		}
	case !s.scrubStarted:
		// Seeded first-pass start; later passes always cover the full
		// set from the beginning.
		s.scrubStarted = true
		s.scrubInPass = true
		start = s.scrubRng.Intn(len(live))
	default:
		s.scrubInPass = true
	}

	i := start
	for ; i < len(live) && pr.Scanned < maxRecords; i++ {
		t := live[i]
		pos := scrubPos{t.loc.seg, t.loc.off}

		s.mu.Lock()
		cur, ok := s.index[t.addr]
		seg := s.segs[t.loc.seg]
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return pr
		}
		if !ok || cur != t.loc || seg == nil || seg.r == nil {
			s.advanceCursor(pos)
			continue // superseded, dropped, or compacted away mid-step
		}

		buf := make([]byte, t.loc.size)
		_, err := seg.r.ReadAt(buf, t.loc.off)
		if err != nil {
			err = fmt.Errorf("cas: scrub read seg %d off %d: %w", t.loc.seg, t.loc.off, err)
		} else {
			err = VerifyRecord(buf, t.addr)
			if err == nil {
				var rec Record
				rec, _, _ = DecodeRecord(buf)
				if rec.Digest != t.loc.digest {
					err = fmt.Errorf("%w: disk digest disagrees with index", ErrDigestMismatch)
				}
			}
		}
		pr.Scanned++
		if err != nil {
			// A read error against a store that closed mid-step is
			// shutdown, not rot: leave the record alone.
			s.mu.Lock()
			closed = s.closed
			s.mu.Unlock()
			if closed {
				return pr
			}
			pr.Corrupt++
			if s.dropCorrupt(t.addr, t.loc, err) {
				s.scrubCorrupt.Add(1)
			}
		} else {
			s.scrubVerified.Add(1)
		}
		s.advanceCursor(pos)
	}
	if i >= len(live) {
		endPass()
	}
	if pr.Corrupt > 0 {
		s.triggerCompact()
	}
	return pr
}

// advanceCursor records the last position the walk covered. Caller
// holds scrubMu; the atomic mirror lets Stats render the cursor
// without taking the scrub lock.
func (s *Store) advanceCursor(p scrubPos) {
	s.scrubCursor = p
	s.scrubCursorSeg.Store(int64(p.seg))
	s.scrubCursorOff.Store(p.off)
}

// triggerCompact starts a background compaction to rewrite segments
// holding freshly condemned records. Single-flight, and honours the
// CompactDeadFrac < 0 escape hatch (tests drive compaction directly).
func (s *Store) triggerCompact() {
	if s.opt.CompactDeadFrac < 0 {
		return
	}
	if !s.compactMu.TryLock() {
		return // a pass is already running; it absorbs this trigger
	}
	s.spawnCompact()
}

// Quarantined reports whether addr is awaiting repair: its record was
// condemned (by scrub, read, or compaction) and no verified copy has
// been re-Put since. The jobs layer uses this to route a miss through
// read-repair before admitting a recompute.
func (s *Store) Quarantined(addr string) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.quarantine[addr]
	return ok
}

// ScrubReport snapshots the quarantine — every condemned address not
// yet healed — in deterministic (sorted by address) order.
func (s *Store) ScrubReport() []QuarantineEntry {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]QuarantineEntry, 0, len(s.quarantine))
	for _, e := range s.quarantine {
		out = append(out, e)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}
