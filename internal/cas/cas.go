// Package cas is a tiered content-addressed result store: the disk tier
// under the gapd RAM result cache. Results are appended to rolling
// segment files as fixed-format records (address, digest, length, CRC,
// body) with group-committed fsyncs; an in-memory index (address →
// segment/offset) is rebuilt on boot by scanning record headers, so a
// warm restart is an index rebuild, not a recompute. Background
// compaction rewrites live records into fresh segments and drops
// superseded and corrupt ones, using the stored SHA-256 digest as the
// integrity check, and a TinyLFU-style frequency sketch decides which
// results deserve the RAM tier versus being served from disk.
//
// Only the standard library is used. Everything the store does is a
// pure function of the operation sequence (no clock in any decision —
// the single annotated wall-clock seam stamps display timestamps only),
// so seeded chaos runs drive it through identical states.
package cas

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Options configures a Store.
type Options struct {
	// Dir is the segment directory (required; created if absent).
	Dir string
	// SegmentBytes rolls the active segment when it would exceed this
	// size (default 64 MiB).
	SegmentBytes int64
	// MaxBytes caps the store's live bytes; compaction evicts the
	// coldest records (lowest sketch estimate, oldest first) past it.
	// 0 means unlimited.
	MaxBytes int64
	// CompactDeadFrac triggers background compaction when dead bytes
	// exceed this fraction of the store (default 0.5; negative disables
	// every automatic trigger, including the MaxBytes budget pass —
	// Compact can still be called directly).
	CompactDeadFrac float64
	// SketchEntries sizes the admission sketch (default 4096 expected
	// hot entries).
	SketchEntries int
	// ScrubSeed seeds the scrubber's starting position (default 1), so
	// a fleet of stores opened with different seeds scrubs different
	// regions first instead of sweeping in lockstep. The walk itself is
	// a pure function of the operation sequence; see scrub.go.
	ScrubSeed int64
}

// recordLoc locates one live record.
type recordLoc struct {
	seg    uint32
	off    int64
	size   int64
	digest [32]byte
}

// segment is one on-disk segment file.
type segment struct {
	id   uint32
	path string
	r    *os.File // read handle (ReadAt)
	size int64
	live int64 // bytes of records the index still points at
}

// Store is the content-addressed segment store. All methods are safe
// for concurrent use.
type Store struct {
	opt    Options
	sketch *Sketch

	mu         sync.Mutex
	index      map[string]recordLoc
	segs       map[uint32]*segment
	active     *segment
	w          *os.File // append handle for the active segment
	nextSeg    uint32
	closed     bool
	quarantine map[string]QuarantineEntry // corrupt drops awaiting repair

	liveBytes int64
	deadBytes int64

	// Group commit: Put appends under mu, then queues a sync request;
	// the flusher drains the queue and answers a whole batch with one
	// fsync of the active segment (a rolled segment was synced before
	// it was sealed, so earlier bytes are already durable).
	syncCh chan chan error
	done   chan struct{}

	compactMu sync.Mutex // single-flights compaction passes
	// compactWG tracks the background pass spawned by maybeCompact /
	// triggerCompact so Close can wait for it before closing the
	// segment read handles the pass is still copying from. Adds happen
	// under mu with closed checked first, so no pass starts after Close
	// begins waiting.
	compactWG sync.WaitGroup
	compGen   atomic.Int64 // bumps on every completed compaction

	// Counters surfaced in Stats (and from there in /metrics).
	puts           atomic.Int64
	rewrites       atomic.Int64 // puts that superseded an existing record
	compactions    atomic.Int64
	evicted        atomic.Int64 // live records dropped by the MaxBytes budget
	corruptDropped atomic.Int64 // records failing CRC/digest on read or compaction
	tornTails      atomic.Int64 // segments truncated at boot
	bootRecords    int64
	createdAt      string // display only; see clock.go

	// Scrub state (scrub.go). scrubMu single-flights scrub steps and
	// guards the cursor walk; the counters are atomics so Stats reads
	// them without touching the scrub lock (lock order is always
	// scrubMu → mu, never the reverse).
	scrubMu      sync.Mutex
	scrubRng     *rand.Rand
	scrubCursor  scrubPos
	scrubInPass  bool
	scrubStarted bool

	scrubVerified  atomic.Int64
	scrubCorrupt   atomic.Int64 // records background verification condemned (scrub step or compaction rewrite)
	scrubPasses    atomic.Int64
	scrubRepaired  atomic.Int64
	scrubCursorSeg atomic.Int64 // Stats mirror of scrubCursor
	scrubCursorOff atomic.Int64
}

// Stats is the store's operational snapshot.
type Stats struct {
	Segments       int    `json:"segments"`
	Records        int    `json:"records"`
	LiveBytes      int64  `json:"live_bytes"`
	DeadBytes      int64  `json:"dead_bytes"`
	TotalBytes     int64  `json:"total_bytes"`
	SegmentBytes   int64  `json:"segment_bytes"`
	MaxBytes       int64  `json:"max_bytes"`
	Puts           int64  `json:"puts"`
	Rewrites       int64  `json:"rewrites"`
	Compactions    int64  `json:"compactions"`
	Evicted        int64  `json:"evicted"`
	CorruptDropped int64  `json:"corrupt_dropped"`
	TornTails      int64  `json:"torn_tails"`
	BootRecords    int64  `json:"boot_records"`
	ScrubVerified  int64  `json:"scrub_verified"`
	ScrubCorrupt   int64  `json:"scrub_corrupt"`
	ScrubRepaired  int64  `json:"scrub_repaired"`
	ScrubPasses    int64  `json:"scrub_passes"`
	ScrubCursor    string `json:"scrub_cursor"`
	Quarantined    int    `json:"quarantined"`
	OpenedAt       string `json:"opened_at,omitempty"`
}

// segPattern names segment files; ids are monotonic.
const segPattern = "seg-%08d.cas"

// Open opens (creating if needed) the store in opt.Dir and rebuilds the
// in-memory index by scanning every segment's record headers. A segment
// truncated mid-record — a crash during append — is indexed up to its
// last complete record; the active segment's torn tail is physically
// truncated so new appends land on a clean boundary.
func Open(opt Options) (*Store, error) {
	if opt.Dir == "" {
		return nil, errors.New("cas: Options.Dir is required")
	}
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = 64 << 20
	}
	if opt.CompactDeadFrac == 0 {
		opt.CompactDeadFrac = 0.5
	}
	if opt.SketchEntries <= 0 {
		opt.SketchEntries = 4096
	}
	if opt.ScrubSeed == 0 {
		opt.ScrubSeed = 1
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: dir: %w", err)
	}
	s := &Store{
		opt:        opt,
		sketch:     NewSketch(opt.SketchEntries),
		index:      make(map[string]recordLoc),
		segs:       make(map[uint32]*segment),
		quarantine: make(map[string]QuarantineEntry),
		syncCh:     make(chan chan error, 128),
		done:       make(chan struct{}),
		createdAt:  displayNow(),
		scrubRng:   rand.New(rand.NewSource(opt.ScrubSeed)),
	}
	if err := s.boot(); err != nil {
		return nil, err
	}
	go s.flusher()
	return s, nil
}

// boot scans existing segments in id order and rebuilds the index; a
// later record for the same address supersedes an earlier one (its
// bytes become dead, reclaimed by the next compaction).
func (s *Store) boot() error {
	entries, err := os.ReadDir(s.opt.Dir)
	if err != nil {
		return fmt.Errorf("cas: boot: %w", err)
	}
	var ids []uint32
	for _, e := range entries {
		var id uint32
		if n, _ := fmt.Sscanf(e.Name(), segPattern, &id); n == 1 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	for _, id := range ids {
		path := filepath.Join(s.opt.Dir, fmt.Sprintf(segPattern, id))
		res, err := scanSegment(path)
		if err != nil {
			return err
		}
		if res.torn {
			s.tornTails.Add(1)
		}
		seg := &segment{id: id, path: path, size: res.cleanEnd}
		for _, rec := range res.records {
			if old, ok := s.index[rec.addr]; ok {
				s.segs[old.seg].live -= old.size
				s.deadBytes += old.size
				s.liveBytes -= old.size
			}
			s.index[rec.addr] = recordLoc{seg: id, off: rec.off, size: rec.size, digest: rec.digest}
			seg.live += rec.size
			s.liveBytes += rec.size
			s.bootRecords++
		}
		s.deadBytes += seg.size - seg.live
		r, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("cas: boot: %w", err)
		}
		seg.r = r
		s.segs[id] = seg
		if id >= s.nextSeg {
			s.nextSeg = id + 1
		}
	}

	// Reuse the newest segment as the active one when it has room;
	// truncate its torn tail (if any) so the next append starts at a
	// record boundary — the same torn-tail discipline as the journal.
	if len(ids) > 0 {
		last := s.segs[ids[len(ids)-1]]
		if last.size < s.opt.SegmentBytes {
			w, err := os.OpenFile(last.path, os.O_WRONLY, 0o644)
			if err != nil {
				return fmt.Errorf("cas: boot: %w", err)
			}
			if err := w.Truncate(last.size); err != nil {
				w.Close()
				return fmt.Errorf("cas: boot truncate: %w", err)
			}
			if _, err := w.Seek(last.size, 0); err != nil {
				w.Close()
				return fmt.Errorf("cas: boot seek: %w", err)
			}
			s.active, s.w = last, w
			return nil
		}
	}
	return s.rollLocked()
}

// rollLocked seals the active segment (final fsync, keep the read
// handle) and opens a fresh one. Caller holds s.mu (or is boot, which
// runs before concurrency starts).
func (s *Store) rollLocked() error {
	if s.w != nil {
		if err := s.w.Sync(); err != nil {
			return fmt.Errorf("cas: roll sync: %w", err)
		}
		if err := s.w.Close(); err != nil {
			return fmt.Errorf("cas: roll close: %w", err)
		}
		s.w = nil
	}
	id := s.nextSeg
	s.nextSeg++
	path := filepath.Join(s.opt.Dir, fmt.Sprintf(segPattern, id))
	w, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("cas: new segment: %w", err)
	}
	r, err := os.Open(path)
	if err != nil {
		w.Close()
		return fmt.Errorf("cas: new segment: %w", err)
	}
	seg := &segment{id: id, path: path, r: r}
	s.segs[id] = seg
	s.active, s.w = seg, w
	return nil
}

// Put stores body under its content address. The write is durable when
// Put returns: the record is covered by a group-committed fsync shared
// with every concurrent Put. Storing an address that already holds the
// same digest is a no-op; a different digest supersedes the old record.
func (s *Store) Put(addr string, body []byte) error {
	if _, err := parseAddr(addr); err != nil {
		return err
	}
	rec, err := EncodeRecord(addr, body)
	if err != nil {
		return err
	}
	var digest [32]byte
	copy(digest[:], rec[36:68])

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("cas: store closed")
	}
	if old, ok := s.index[addr]; ok {
		if old.digest == digest {
			s.mu.Unlock()
			return nil
		}
		s.segs[old.seg].live -= old.size
		s.deadBytes += old.size
		s.liveBytes -= old.size
		s.rewrites.Add(1)
	}
	if s.active.size > 0 && s.active.size+int64(len(rec)) > s.opt.SegmentBytes {
		if err := s.rollLocked(); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	if _, err := s.w.Write(rec); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("cas: append: %w", err)
	}
	loc := recordLoc{seg: s.active.id, off: s.active.size, size: int64(len(rec)), digest: digest}
	s.active.size += loc.size
	s.active.live += loc.size
	s.index[addr] = loc
	s.liveBytes += loc.size
	s.puts.Add(1)
	if _, q := s.quarantine[addr]; q {
		// A fresh verified copy heals the quarantined address — whether
		// it arrived by read-repair from a replica or by recompute.
		delete(s.quarantine, addr)
		s.scrubRepaired.Add(1)
	}
	s.mu.Unlock()

	if err := s.waitSynced(); err != nil {
		return err
	}
	s.maybeCompact()
	return nil
}

// waitSynced queues a sync request and blocks until the flusher's next
// group commit covers it.
func (s *Store) waitSynced() error {
	req := make(chan error, 1)
	select {
	case s.syncCh <- req:
	case <-s.done:
		return errors.New("cas: store closed")
	}
	select {
	case err := <-req:
		return err
	case <-s.done:
		return errors.New("cas: store closed")
	}
}

// flusher is the group-commit loop: it drains every queued sync request
// and answers the whole batch with a single fsync of the active
// segment. A segment rolled since a batch member's append was already
// synced by rollLocked, so one fsync of the current active file covers
// every queued write.
func (s *Store) flusher() {
	for {
		var batch []chan error
		select {
		case req := <-s.syncCh:
			batch = append(batch, req)
		case <-s.done:
			return
		}
	drain:
		for {
			select {
			case req := <-s.syncCh:
				batch = append(batch, req)
			default:
				break drain
			}
		}
		s.mu.Lock()
		w := s.w
		var err error
		if w == nil {
			err = errors.New("cas: store closed")
		} else {
			err = w.Sync()
		}
		s.mu.Unlock()
		if err != nil && w != nil {
			err = fmt.Errorf("cas: sync: %w", err)
		}
		for _, req := range batch {
			req <- err
		}
	}
}

// ErrNotFound reports an address with no live record. Every other
// error from GetE means a record existed but failed verification — the
// corrupt-read case callers may want to repair rather than recompute.
var ErrNotFound = errors.New("cas: not found")

// Get returns the stored body for addr. The record's CRC and SHA-256
// digest are verified on every read; a record that fails verification
// is dropped from the index (counted corrupt_dropped) and reported as a
// miss, so a flipped bit degrades to one recompute, never a wrong
// answer.
func (s *Store) Get(addr string) ([]byte, bool) {
	b, err := s.GetE(addr)
	return b, err == nil
}

// GetE is Get with the failure class preserved: ErrNotFound for an
// absent address, a codec error (ErrHeaderCRC, ErrBodyCRC,
// ErrDigestMismatch, ...) for a record that existed but failed
// verification. A corrupt record is dropped from the index and
// quarantined before GetE returns, so the caller sees the corruption
// exactly once and a repair path (replica fetch or recompute) can
// re-Put under the same address.
func (s *Store) GetE(addr string) ([]byte, error) {
	rec, err := s.GetRecord(addr)
	return rec.Body, err
}

// GetRecord is GetE returning the whole verified record, so a caller
// that needs the body's SHA-256 takes the digest the read just checked
// instead of hashing the body again.
func (s *Store) GetRecord(addr string) (Record, error) {
	if s == nil {
		return Record{}, ErrNotFound
	}
	s.mu.Lock()
	loc, ok := s.index[addr]
	if !ok {
		s.mu.Unlock()
		return Record{}, ErrNotFound
	}
	seg := s.segs[loc.seg]
	r := seg.r
	s.mu.Unlock()

	buf := make([]byte, loc.size)
	if _, err := r.ReadAt(buf, loc.off); err != nil {
		err = fmt.Errorf("cas: read seg %d off %d: %w", loc.seg, loc.off, err)
		s.dropCorrupt(addr, loc, err)
		return Record{}, err
	}
	rec, _, err := DecodeRecord(buf)
	if err == nil && rec.Addr != addr {
		err = fmt.Errorf("%w: record holds %s, index expected %s", ErrBadAddress, rec.Addr, addr)
	}
	if err != nil {
		s.dropCorrupt(addr, loc, err)
		return Record{}, err
	}
	return rec, nil
}

// Has reports whether addr is indexed (without reading the body).
func (s *Store) Has(addr string) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[addr]
	return ok
}

// Len reports the number of live records.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Keys snapshots the live content addresses in deterministic (sorted)
// order — what anti-entropy and drain handoff sweep.
func (s *Store) Keys() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	keys := make([]string, 0, len(s.index))
	for addr := range s.index {
		keys = append(keys, addr)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Touch records one access to addr in the admission sketch.
func (s *Store) Touch(addr string) {
	if s == nil {
		return
	}
	s.sketch.Touch(addr)
}

// Admit is the TinyLFU gate the RAM tier consults before evicting
// victim to admit candidate: the candidate wins ties, so an empty
// sketch (a cold boot) admits everything, and a one-shot scan key
// (estimate 1) cannot displace a proven-hot victim.
func (s *Store) Admit(candidate, victim string) bool {
	if s == nil {
		return true
	}
	return s.sketch.Estimate(candidate) >= s.sketch.Estimate(victim)
}

// Sketch returns the store's admission sketch.
func (s *Store) Sketch() *Sketch { return s.sketch }

// dropCorrupt removes addr from the index if it still points at loc,
// marking the record's bytes dead and quarantining the address: the
// entry stays in the scrub report until a verified copy is re-Put (by
// read-repair or recompute), which clears it and counts scrub_repaired.
// It reports whether it condemned the record, so the two verifying
// walks that can race to the same rotten record — a scrub step and the
// compaction rewrite a scrub step triggers — count it once between them.
func (s *Store) dropCorrupt(addr string, loc recordLoc, reason error) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.index[addr]
	if !ok || cur != loc {
		return false
	}
	delete(s.index, addr)
	s.segs[loc.seg].live -= loc.size
	s.liveBytes -= loc.size
	s.deadBytes += loc.size
	s.corruptDropped.Add(1)
	why := "unknown"
	if reason != nil {
		why = reason.Error()
	}
	s.quarantine[addr] = QuarantineEntry{
		Addr: addr, Segment: loc.seg, Offset: loc.off, Reason: why,
	}
	return true
}

// Stats snapshots the store.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	st := Stats{
		Segments:    len(s.segs),
		Records:     len(s.index),
		LiveBytes:   s.liveBytes,
		DeadBytes:   s.deadBytes,
		Quarantined: len(s.quarantine),
	}
	s.mu.Unlock()
	st.TotalBytes = st.LiveBytes + st.DeadBytes
	st.SegmentBytes = s.opt.SegmentBytes
	st.MaxBytes = s.opt.MaxBytes
	st.Puts = s.puts.Load()
	st.Rewrites = s.rewrites.Load()
	st.Compactions = s.compactions.Load()
	st.Evicted = s.evicted.Load()
	st.CorruptDropped = s.corruptDropped.Load()
	st.TornTails = s.tornTails.Load()
	st.BootRecords = s.bootRecords
	st.ScrubVerified = s.scrubVerified.Load()
	st.ScrubCorrupt = s.scrubCorrupt.Load()
	st.ScrubRepaired = s.scrubRepaired.Load()
	st.ScrubPasses = s.scrubPasses.Load()
	st.ScrubCursor = fmt.Sprintf("%d:%d", s.scrubCursorSeg.Load(), s.scrubCursorOff.Load())
	st.OpenedAt = s.createdAt
	return st
}

// Sync forces an fsync of the active segment.
func (s *Store) Sync() error {
	if s == nil {
		return nil
	}
	return s.waitSynced()
}

// Close syncs and closes every segment handle. Puts after Close fail.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	var err error
	if s.w != nil {
		if serr := s.w.Sync(); serr != nil && err == nil {
			err = serr
		}
		if cerr := s.w.Close(); cerr != nil && err == nil {
			err = cerr
		}
		s.w = nil
	}
	s.mu.Unlock()

	// A background compaction pass may still be copying records out of
	// the sealed segments; closing their read handles under its feet
	// turns the pass's reads into failures on a closed fd. closed is
	// already set, so the pass aborts at its next mu acquisition and no
	// new pass can start — wait it out, then drop the handles.
	s.compactWG.Wait()

	s.mu.Lock()
	for _, seg := range s.segs {
		if seg.r != nil {
			seg.r.Close()
		}
	}
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("cas: close: %w", err)
	}
	return nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.opt.Dir }
