package cas

import (
	"fmt"
	"os"
	"sort"
)

// CompactStats summarizes one compaction pass.
type CompactStats struct {
	// SegmentsIn/SegmentsOut count sealed segments consumed and fresh
	// segments produced.
	SegmentsIn  int
	SegmentsOut int
	// Rewritten counts live records carried into fresh segments.
	Rewritten int
	// ReclaimedBytes counts dead bytes (superseded records) whose space
	// was reclaimed with the retired segments.
	ReclaimedBytes int64
	// DroppedCorrupt counts records failing their CRC or SHA-256 digest
	// during the rewrite — compaction is also the scrubber.
	DroppedCorrupt int
	// Evicted counts live records dropped to honour the MaxBytes
	// budget: the coldest by sketch estimate, oldest first.
	Evicted int
	// BytesBefore/BytesAfter are the on-disk totals around the pass.
	BytesBefore int64
	BytesAfter  int64
}

// maybeCompact triggers a background compaction when dead bytes exceed
// the configured fraction of the store, or the live bytes exceed the
// MaxBytes budget. Single-flight: a pass already running absorbs the
// trigger.
func (s *Store) maybeCompact() {
	if s.opt.CompactDeadFrac < 0 {
		return // automatic compaction disabled (tests drive it directly)
	}
	s.mu.Lock()
	total := s.liveBytes + s.deadBytes
	needDead := total > 0 &&
		float64(s.deadBytes) > s.opt.CompactDeadFrac*float64(total) &&
		s.deadBytes > s.opt.SegmentBytes/4
	needBudget := s.opt.MaxBytes > 0 && s.liveBytes > s.opt.MaxBytes
	s.mu.Unlock()
	if !needDead && !needBudget {
		return
	}
	if !s.compactMu.TryLock() {
		return // a pass is already running; it absorbs this trigger
	}
	s.spawnCompact()
}

// spawnCompact launches the single background compaction pass. Caller
// holds s.compactMu, which the pass releases when it finishes. The
// closed re-check and the WaitGroup Add share one mu critical section,
// so Close (which sets closed under mu, then waits) either sees the
// Add or prevents the spawn — never a pass it did not wait for.
func (s *Store) spawnCompact() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.compactMu.Unlock()
		return
	}
	s.compactWG.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.compactWG.Done()
		defer s.compactMu.Unlock()
		_, _ = s.compact()
	}()
}

// Compact synchronously rewrites every live record from sealed segments
// into fresh ones, drops superseded and corrupt records, evicts the
// coldest live records past the MaxBytes budget, and deletes the
// consumed segment files. Concurrent Puts and Gets stay correct
// throughout: the rewrite works from a snapshot, and the index swap
// skips any address overwritten mid-pass.
func (s *Store) Compact() (CompactStats, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	return s.compact()
}

// compact is the single-flight body. Caller holds s.compactMu.
func (s *Store) compact() (CompactStats, error) {
	var st CompactStats

	// Snapshot: seal the active segment so every record to move lives
	// in a read-only file, then list the live set.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return st, fmt.Errorf("cas: compact: store closed")
	}
	if err := s.rollLocked(); err != nil {
		s.mu.Unlock()
		return st, err
	}
	activeID := s.active.id
	st.BytesBefore = s.liveBytes + s.deadBytes
	type liveRec struct {
		addr string
		loc  recordLoc
	}
	live := make([]liveRec, 0, len(s.index))
	for addr, loc := range s.index {
		if loc.seg != activeID {
			live = append(live, liveRec{addr, loc})
		}
	}
	oldSegs := make([]*segment, 0, len(s.segs))
	for id, seg := range s.segs {
		if id != activeID {
			oldSegs = append(oldSegs, seg)
			st.SegmentsIn++
			st.ReclaimedBytes += seg.size - seg.live
		}
	}
	s.mu.Unlock()

	// Deterministic order: oldest record first (segment id, offset), so
	// two stores that saw the same operation sequence compact to
	// byte-identical segment contents.
	sort.Slice(live, func(i, j int) bool {
		if live[i].loc.seg != live[j].loc.seg {
			return live[i].loc.seg < live[j].loc.seg
		}
		return live[i].loc.off < live[j].loc.off
	})

	// MaxBytes budget: evict the coldest live records first — lowest
	// sketch estimate, ties broken oldest-first — until what remains
	// fits. Records in the active segment are not evicted (they are the
	// newest writes; the next pass sees them sealed).
	evict := map[string]bool{}
	if s.opt.MaxBytes > 0 {
		var liveTotal int64
		for _, lr := range live {
			liveTotal += lr.loc.size
		}
		byCold := append([]liveRec(nil), live...)
		sort.SliceStable(byCold, func(i, j int) bool {
			ei, ej := s.sketch.Estimate(byCold[i].addr), s.sketch.Estimate(byCold[j].addr)
			if ei != ej {
				return ei < ej
			}
			if byCold[i].loc.seg != byCold[j].loc.seg {
				return byCold[i].loc.seg < byCold[j].loc.seg
			}
			return byCold[i].loc.off < byCold[j].loc.off
		})
		for _, lr := range byCold {
			if liveTotal <= s.opt.MaxBytes {
				break
			}
			evict[lr.addr] = true
			liveTotal -= lr.loc.size
		}
	}

	// Rewrite the survivors into fresh compaction segments, verifying
	// each body against its stored digest — DecodeRecord recomputes the
	// SHA-256, so a record that rotted on disk is dropped here instead
	// of being carried forward.
	type moved struct {
		addr string
		from recordLoc
		to   recordLoc
	}
	var moves []moved
	var outSegs []*segment
	var out *segment
	var outW *os.File
	closeOut := func() error {
		if outW == nil {
			return nil
		}
		if err := outW.Sync(); err != nil {
			return err
		}
		return outW.Close()
	}
	fail := func(err error) (CompactStats, error) {
		_ = closeOut()
		for _, seg := range outSegs {
			if seg.r != nil {
				seg.r.Close()
			}
			os.Remove(seg.path)
		}
		return st, err
	}
	for _, lr := range live {
		if evict[lr.addr] {
			st.Evicted++
			continue
		}
		s.mu.Lock()
		cur, ok := s.index[lr.addr]
		seg := s.segs[lr.loc.seg]
		s.mu.Unlock()
		if !ok || cur != lr.loc || seg == nil {
			continue // overwritten or dropped mid-pass; nothing to carry
		}
		// A record this rewrite condemns is a scrub verdict too: the
		// scrub step that triggered this pass may not have reached it
		// yet, and it must not go uncounted for losing that race.
		buf := make([]byte, lr.loc.size)
		var err error
		if _, rerr := seg.r.ReadAt(buf, lr.loc.off); rerr != nil {
			err = fmt.Errorf("cas: compact read: %w", rerr)
		} else {
			err = VerifyRecord(buf, lr.addr)
		}
		if err != nil {
			st.DroppedCorrupt++
			if s.dropCorrupt(lr.addr, lr.loc, err) {
				s.scrubCorrupt.Add(1)
			}
			continue
		}
		if out == nil || out.size+int64(len(buf)) > s.opt.SegmentBytes {
			if err := closeOut(); err != nil {
				return fail(fmt.Errorf("cas: compact: %w", err))
			}
			outW = nil
			var nerr error
			out, outW, nerr = s.newCompactionSegment()
			if nerr != nil {
				return fail(nerr)
			}
			outSegs = append(outSegs, out)
			st.SegmentsOut++
		}
		if _, err := outW.Write(buf); err != nil {
			return fail(fmt.Errorf("cas: compact: %w", err))
		}
		moves = append(moves, moved{
			addr: lr.addr,
			from: lr.loc,
			to:   recordLoc{seg: out.id, off: out.size, size: lr.loc.size, digest: lr.loc.digest},
		})
		out.size += int64(len(buf))
		out.live += int64(len(buf))
		st.Rewritten++
	}
	if err := closeOut(); err != nil {
		return fail(fmt.Errorf("cas: compact: %w", err))
	}

	// Swap: point the index at the fresh segments (skipping addresses
	// overwritten mid-pass), install the new segments, retire the old.
	s.mu.Lock()
	for _, seg := range outSegs {
		s.segs[seg.id] = seg
	}
	for _, mv := range moves {
		if cur, ok := s.index[mv.addr]; ok && cur == mv.from {
			s.index[mv.addr] = mv.to
		} else {
			// A Put superseded this record while it was being copied;
			// the fresh copy is dead on arrival.
			s.segs[mv.to.seg].live -= mv.to.size
		}
	}
	for _, seg := range oldSegs {
		delete(s.segs, seg.id)
	}
	// Eviction removes index entries whose segments are being retired.
	for addr := range evict {
		if cur, ok := s.index[addr]; ok {
			stillOld := true
			for _, seg := range outSegs {
				if cur.seg == seg.id {
					stillOld = false
					break
				}
			}
			if cur.seg == activeID {
				stillOld = false
			}
			if stillOld {
				delete(s.index, addr)
				s.evicted.Add(1)
			}
		}
	}
	// Recompute byte accounting from the surviving segments — simpler
	// and safer than deltas across a concurrent pass.
	s.liveBytes, s.deadBytes = 0, 0
	for _, seg := range s.segs {
		if seg.live < 0 {
			seg.live = 0
		}
		s.liveBytes += seg.live
		s.deadBytes += seg.size - seg.live
	}
	st.BytesAfter = s.liveBytes + s.deadBytes
	s.mu.Unlock()

	for _, seg := range oldSegs {
		if seg.r != nil {
			seg.r.Close()
		}
		os.Remove(seg.path)
	}
	s.compactions.Add(1)
	s.compGen.Add(1)
	return st, nil
}

// newCompactionSegment opens a fresh segment for compaction output.
func (s *Store) newCompactionSegment() (*segment, *os.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextSeg
	s.nextSeg++
	path := s.segPath(id)
	w, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("cas: compact segment: %w", err)
	}
	r, err := os.Open(path)
	if err != nil {
		w.Close()
		return nil, nil, fmt.Errorf("cas: compact segment: %w", err)
	}
	return &segment{id: id, path: path, r: r}, w, nil
}

// segPath names segment id's file.
func (s *Store) segPath(id uint32) string {
	return fmt.Sprintf("%s/"+segPattern, s.opt.Dir, id)
}

// Compactions reports completed compaction passes.
func (s *Store) Compactions() int64 { return s.compactions.Load() }
