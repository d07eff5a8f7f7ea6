package jobs

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// journalFile is the segment name inside the journal directory.
const journalFile = "journal.jsonl"

// JournalRecord is one line of the append-only job journal: an intent
// log that says which jobs were accepted and how each ended, never what
// one computed. "accept" records carry the full canonical spec and are
// fsynced before the job runs, so a crash before the job's outcome
// leaves enough on disk to re-run it. "stored" records are slim pointers
// written once the result is durable — after the CAS put, or at once
// when no store is attached — so replay neither re-runs the job nor
// looks for its body anywhere but the store. "fail" records, fsynced,
// close out jobs whose failure was terminal so replay does not chase
// them forever. Any other op, such as the "done" lines that older
// journals wrote with a full result, is ignored.
type JournalRecord struct {
	Op    string `json:"op"` // accept | stored | fail
	ID    string `json:"id"`
	Spec  *Spec  `json:"spec,omitempty"`
	Error string `json:"error,omitempty"`
	Class Class  `json:"class,omitempty"`
	T     string `json:"t,omitempty"` // RFC3339Nano append time
}

// Journal is the crash-safe job log. All methods are safe for concurrent
// use; a write failure marks the journal unhealthy (visible to /healthz)
// but never blocks job execution — losing durability degrades the
// service, it does not stop it.
type Journal struct {
	dir  string
	path string

	mu      sync.Mutex
	f       *os.File
	healthy atomic.Bool
}

// OpenJournal opens (creating if needed) the journal in dir.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: journal dir: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: journal open: %w", err)
	}
	j := &Journal{dir: dir, path: path, f: f}
	j.healthy.Store(true)
	return j, nil
}

// Dir returns the journal directory.
func (j *Journal) Dir() string {
	//gaplint:allow lockdiscipline — dir is set once by OpenJournal and never written again
	return j.dir
}

// Healthy reports whether the last journal write succeeded. The HTTP
// layer degrades /healthz to 503 when this goes false.
func (j *Journal) Healthy() bool {
	if j == nil {
		return true
	}
	return j.healthy.Load()
}

// Accept journals a job acceptance and fsyncs: after Accept returns nil
// the job survives a process kill.
func (j *Journal) Accept(id string, spec Spec) error {
	return j.append(JournalRecord{Op: "accept", ID: id, Spec: &spec}, true)
}

// Stored journals that a job's result is durable — a pointer, not a
// body. With a store attached it is written only after the CAS put
// succeeded; without one it is written at once and only closes the
// accept. Unsynced by design: the CAS record it references already hit
// disk (the store group-commits its fsyncs), and recovery consults the
// store before re-running any pending accept, so a lost stored line is
// re-derived from the store index, never recomputed. Without a store, a
// lost line costs one re-run at the next boot.
func (j *Journal) Stored(id string) error {
	return j.append(JournalRecord{Op: "stored", ID: id}, false)
}

// Fail journals a terminal failure so replay does not resubmit a job
// that can never succeed (spec errors) or already failed its attempt.
func (j *Journal) Fail(id string, msg string, class Class) error {
	return j.append(JournalRecord{Op: "fail", ID: id, Error: msg, Class: class}, true)
}

// append writes one record line; sync forces it to disk.
func (j *Journal) append(rec JournalRecord, sync bool) error {
	if j == nil {
		return nil
	}
	rec.T = time.Now().UTC().Format(time.RFC3339Nano)
	line, err := json.Marshal(rec)
	if err != nil {
		j.healthy.Store(false)
		return fmt.Errorf("jobs: journal marshal: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		j.healthy.Store(false)
		return errors.New("jobs: journal closed")
	}
	if _, err := j.f.Write(line); err != nil {
		j.healthy.Store(false)
		return fmt.Errorf("jobs: journal write: %w", err)
	}
	if sync {
		if err := j.f.Sync(); err != nil {
			j.healthy.Store(false)
			return fmt.Errorf("jobs: journal sync: %w", err)
		}
	}
	j.healthy.Store(true)
	return nil
}

// Sync flushes the journal to disk.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.f.Sync()
}

// Close syncs and closes the journal. Appends after Close fail and mark
// the journal unhealthy.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// MaxReplayGenerations bounds boot-time re-executions of one pending
// job. Every replay re-journals the job's accept record, so the accept
// count is a crash-generation marker: a job whose accept count keeps
// growing without a terminal record is taking the process down on every
// boot (OOM, runtime fatal — outside the panic fence). Rather than
// crash-loop the daemon forever, recovery journals such a job as a
// terminal failure and moves on.
const MaxReplayGenerations = 3

// Replayed is what a journal replay recovered. Every job the journal
// names lands in exactly one class: pending, stored or failed.
type Replayed struct {
	// Pending are accepted jobs with no terminal record — work a crash
	// interrupted, in acceptance order.
	Pending []Spec
	// PendingAccepts holds, parallel to Pending, how many accept records
	// the journal carries for each pending job — one per boot that tried
	// it, so accepts-1 is the number of replays already attempted.
	PendingAccepts []int
	// PendingIDs holds, parallel to Pending, the journaled job IDs
	// (canonical spec hashes), so callers need not re-derive them.
	PendingIDs []string
	// StoredIDs are jobs whose terminal record is a stored pointer: the
	// result body, if any survives, lives in the CAS store under this
	// content address.
	StoredIDs []string
	// Failed counts jobs whose terminal record was a failure.
	Failed int
	// Truncated reports that the final line was a partial write (the
	// crash landed mid-append) and was ignored.
	Truncated bool
}

// maxJournalLine caps one journal line. Intent records are under a
// kilobyte (a fail record's panic stack runs to a few); the generous cap
// keeps old journals, whose done lines carried whole results, readable
// up to the line that overflows it.
const maxJournalLine = 16 << 20

// ReplayJournal reads dir's journal and classifies every job it
// mentions. It tolerates a truncated final line — the signature of a
// crash during append — and an absent journal (nothing to recover).
// Records it does not read (an old "done" line, an accept without a
// spec) are skipped, so such a job's accept, if any, replays as pending.
func ReplayJournal(dir string) (Replayed, error) {
	var rep Replayed
	f, err := os.Open(filepath.Join(dir, journalFile))
	if errors.Is(err, os.ErrNotExist) {
		return rep, nil
	}
	if err != nil {
		return rep, fmt.Errorf("jobs: journal replay: %w", err)
	}
	defer f.Close()

	type entry struct {
		spec    *Spec
		failed  bool
		stored  bool
		accepts int
	}
	byID := map[string]*entry{}
	var order []string

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxJournalLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec JournalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// A torn line can only be the last one the process wrote;
			// anything after it would have failed the same way, so stop
			// here and report the truncation.
			rep.Truncated = true
			break
		}
		if rec.Op != "stored" && rec.Op != "fail" && (rec.Op != "accept" || rec.Spec == nil) {
			continue // an old "done" line, an accept without a spec, an unknown op
		}
		e, ok := byID[rec.ID]
		if !ok {
			e = &entry{}
			byID[rec.ID] = e
			order = append(order, rec.ID)
		}
		switch rec.Op {
		case "accept":
			e.spec = rec.Spec
			e.accepts++
		case "stored":
			e.stored = true
			e.failed = false
		case "fail":
			e.failed = true
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			rep.Truncated = true
		} else if !errors.Is(err, io.EOF) {
			return rep, fmt.Errorf("jobs: journal replay: %w", err)
		}
	}

	for _, id := range order {
		switch e := byID[id]; {
		case e.failed:
			rep.Failed++
		case e.stored:
			rep.StoredIDs = append(rep.StoredIDs, id)
		default: // only accepts, so the spec is set
			rep.Pending = append(rep.Pending, *e.spec)
			rep.PendingAccepts = append(rep.PendingAccepts, e.accepts)
			rep.PendingIDs = append(rep.PendingIDs, id)
		}
	}
	return rep, nil
}

// Compact atomically rewrites the journal to hold only stored pointers
// for the given content addresses, dropping the accept and failure
// history. Recovery calls it once every pending job has been settled,
// so the journal does not grow without bound across restarts.
func (j *Journal) Compact(storedIDs []string) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	lines, err := storedLines(storedIDs, time.Now().UTC().Format(time.RFC3339Nano))
	if err != nil {
		return err
	}
	return j.rewriteLocked(lines)
}

// storedLines marshals slim stored-pointer records.
func storedLines(ids []string, now string) ([][]byte, error) {
	lines := make([][]byte, 0, len(ids))
	for _, id := range ids {
		line, err := json.Marshal(JournalRecord{Op: "stored", ID: id, T: now})
		if err != nil {
			return nil, fmt.Errorf("jobs: journal compact: %w", err)
		}
		lines = append(lines, line)
	}
	return lines, nil
}

// rewriteLocked atomically replaces the journal with the given record
// lines (tmp file + fsync + rename) and reopens the append handle.
// Caller holds j.mu.
func (j *Journal) rewriteLocked(lines [][]byte) error {
	tmp, err := os.CreateTemp(j.dir, journalFile+".tmp*")
	if err != nil {
		return fmt.Errorf("jobs: journal compact: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	for _, line := range lines {
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("jobs: journal compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("jobs: journal compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("jobs: journal compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fmt.Errorf("jobs: journal compact: %w", err)
	}
	if j.f != nil {
		j.f.Close()
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.f = nil
		j.healthy.Store(false)
		return fmt.Errorf("jobs: journal reopen: %w", err)
	}
	j.f = f
	j.healthy.Store(true)
	return nil
}

// CompactStats summarizes one on-demand compaction.
type CompactStats struct {
	// BeforeBytes/AfterBytes are the journal file sizes around the
	// rewrite.
	BeforeBytes int64
	AfterBytes  int64
	// StoredKept counts stored pointers carried through.
	StoredKept int
	// PendingKept counts in-flight jobs whose accept records were
	// preserved — compacting a live journal must not orphan work a
	// crash would need to recover.
	PendingKept int
	// DroppedFailed counts terminally failed jobs whose history was
	// discarded.
	DroppedFailed int
}

// CompactNow compacts the live journal on demand (the SIGHUP path):
// duplicate accepts, repeated stored pointers, and terminal-failure
// history collapse to one stored pointer per finished job, while
// pending jobs keep their accept records — repeated per replay
// generation, so the poison-job crash-loop marker survives compaction.
// Appends are blocked for the duration, giving the rewrite a consistent
// snapshot.
func (j *Journal) CompactNow() (CompactStats, error) {
	if j == nil {
		return CompactStats{}, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var st CompactStats
	if fi, err := os.Stat(j.path); err == nil {
		st.BeforeBytes = fi.Size()
	}
	rep, err := ReplayJournal(j.dir)
	if err != nil {
		return st, err
	}
	now := time.Now().UTC().Format(time.RFC3339Nano)
	lines, err := storedLines(rep.StoredIDs, now)
	if err != nil {
		return st, err
	}
	for i := range rep.Pending {
		spec := rep.Pending[i]
		line, err := json.Marshal(JournalRecord{Op: "accept", ID: rep.PendingIDs[i], Spec: &spec, T: now})
		if err != nil {
			return st, fmt.Errorf("jobs: journal compact: %w", err)
		}
		for n := 0; n < rep.PendingAccepts[i]; n++ {
			lines = append(lines, line)
		}
	}
	st.StoredKept = len(rep.StoredIDs)
	st.PendingKept = len(rep.Pending)
	st.DroppedFailed = rep.Failed
	if err := j.rewriteLocked(lines); err != nil {
		return st, err
	}
	if fi, err := os.Stat(j.path); err == nil {
		st.AfterBytes = fi.Size()
	}
	return st, nil
}

// RecoverStats summarizes a boot-time journal recovery.
type RecoverStats struct {
	// WarmedStore counts results resolved from the CAS store during
	// recovery — stored pointers re-warmed and pending jobs whose
	// bodies were already durable on disk (no recompute needed).
	WarmedStore int
	// Resubmitted counts pending jobs re-run through the pool.
	Resubmitted int
	// FailedReplays counts resubmitted jobs that failed again.
	FailedReplays int
	// SkippedTerminal counts journal jobs with terminal failure records
	// (not re-run).
	SkippedTerminal int
	// ReplaysExhausted counts pending jobs skipped because they had
	// already been replayed MaxReplayGenerations times — the poison-job
	// signature of a boot-time crash loop. They are journaled as
	// terminal failures, not re-run.
	ReplaysExhausted int
	// Truncated reports a torn final journal line was discarded.
	Truncated bool
}

// RecoverFromJournal replays dir's journal into the pool: stored
// pointers re-warm the cache from the CAS store (a read, no
// recomputation), pending jobs — accepted before a crash but never
// finished — are re-executed through the pool, and the journal is
// compacted to the surviving state. The journal holds no result bodies:
// without a store, recovery only re-runs interrupted jobs, and finished
// results recompute on demand. Either way the answers are exact — a
// warmed entry is the bytes the original run stored, and a recompute
// runs the same canonical spec.
func RecoverFromJournal(ctx context.Context, p *Pool, dir string) (RecoverStats, error) {
	var stats RecoverStats
	rep, err := ReplayJournal(dir)
	if err != nil {
		return stats, err
	}
	stats.Truncated = rep.Truncated
	stats.SkippedTerminal = rep.Failed
	// Stored pointers resolve through the CAS index — the body never
	// left disk, so warming is a read, not a recompute. A pointer whose
	// body the store does not hold (no store, budget-evicted, dropped
	// corrupt) is released: the job recomputes on next demand.
	for _, id := range rep.StoredIDs {
		if st, ok := p.storeGet(id); ok {
			p.Cache().Put(id, st)
			p.metrics.JournalReplayedDone.Add(1)
			stats.WarmedStore++
		}
	}
	for i, spec := range rep.Pending {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		// A crash can land between the CAS fsync and the stored journal
		// line: the accept looks pending but the body is already
		// durable. Check the store before re-running.
		if st, ok := p.storeGet(spec.Hash()); ok {
			p.Cache().Put(st.ID, st)
			p.journalStored(st.ID)
			p.metrics.JournalReplayedDone.Add(1)
			stats.WarmedStore++
			continue
		}
		// A pending job whose accept count already shows
		// MaxReplayGenerations replays is crash-looping the boot path:
		// journal it terminal (fsynced before any re-run, so the verdict
		// survives yet another crash) and skip it.
		if rep.PendingAccepts[i]-1 >= MaxReplayGenerations {
			p.metrics.JournalReplaysExhausted.Add(1)
			stats.ReplaysExhausted++
			p.journalFail(spec.Hash(), fmt.Errorf(
				"jobs: replay budget exhausted after %d generations (poison job)",
				rep.PendingAccepts[i]-1), ClassFatal)
			continue
		}
		p.metrics.JournalReplayedPending.Add(1)
		stats.Resubmitted++
		if _, err := p.Do(ctx, spec); err != nil {
			stats.FailedReplays++
		}
	}
	// Compact the journal to the surviving state: one stored pointer per
	// result the store holds — the replayed pointers plus whatever the
	// resubmissions just stored — dropping the pre-crash accept and fail
	// history so the file does not grow without bound across restarts.
	// Without a store no pointer survives: it would point at nothing.
	if j := p.opt.Journal; j != nil && j.Dir() == dir {
		var ids []string
		for _, id := range slices.Concat(rep.StoredIDs, rep.PendingIDs) {
			if p.store.Has(id) { // false for every id with no store
				ids = append(ids, id)
			}
		}
		if err := j.Compact(ids); err != nil {
			return stats, err
		}
	}
	return stats, nil
}
