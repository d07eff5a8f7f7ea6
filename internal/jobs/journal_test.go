package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	specA, _ := smallEval(1).Canon()
	specB, _ := smallEval(2).Canon()
	specC, _ := smallEval(3).Canon()

	if err := j.Accept(specA.Hash(), specA); err != nil {
		t.Fatal(err)
	}
	if err := j.Accept(specB.Hash(), specB); err != nil {
		t.Fatal(err)
	}
	if err := j.Accept(specC.Hash(), specC); err != nil {
		t.Fatal(err)
	}
	if err := j.Stored(specA.Hash()); err != nil {
		t.Fatal(err)
	}
	if err := j.Fail(specC.Hash(), "spec rot", ClassSpec); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.StoredIDs) != 1 || rep.StoredIDs[0] != specA.Hash() {
		t.Errorf("stored = %+v", rep.StoredIDs)
	}
	if len(rep.Pending) != 1 || rep.Pending[0].Hash() != specB.Hash() {
		t.Errorf("pending = %+v", rep.Pending)
	}
	if rep.Failed != 1 {
		t.Errorf("failed = %d", rep.Failed)
	}
	if rep.Truncated {
		t.Error("clean journal reported truncation")
	}
}

// TestJournalTornTail: a crash mid-append leaves a partial final line;
// replay must keep everything before it and report the truncation
// instead of failing.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := smallEval(1).Canon()
	if err := j.Accept(spec.Hash(), spec); err != nil {
		t.Fatal(err)
	}
	j.Close()

	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"done","id":"abc","resu`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rep, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Error("torn tail not reported")
	}
	if len(rep.Pending) != 1 {
		t.Errorf("pending = %d, want the record before the torn line", len(rep.Pending))
	}
}

// TestJournalOverlongLineTruncates: a line past the 16 MiB cap (only an
// old done line could be one) ends the replay there, reported as a
// truncation, with every record before it kept.
func TestJournalOverlongLineTruncates(t *testing.T) {
	dir := t.TempDir()
	spec, _ := smallEval(1).Canon()
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"op":"accept","id":%q,"spec":%s}`+"\n", spec.Hash(), specJSON)
	b.WriteString(`{"op":"done","id":"x","result":"`)
	b.Write(bytes.Repeat([]byte("x"), maxJournalLine))
	b.WriteString(`"}` + "\n" + `{"op":"stored","id":"y"}` + "\n")
	if err := os.WriteFile(filepath.Join(dir, journalFile), b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated || len(rep.PendingIDs) != 1 || rep.PendingIDs[0] != spec.Hash() || len(rep.StoredIDs) != 0 {
		t.Errorf("truncated %v, pending %v, stored %v; want the accept kept and replay stopped at the long line",
			rep.Truncated, rep.PendingIDs, rep.StoredIDs)
	}
}

func TestJournalMissingDirIsEmpty(t *testing.T) {
	rep, err := ReplayJournal(filepath.Join(t.TempDir(), "nope"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pending)+len(rep.StoredIDs)+rep.Failed != 0 {
		t.Errorf("replay of absent journal = %+v", rep)
	}
}

func TestJournalCompact(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	specA, _ := smallEval(1).Canon()
	specB, _ := smallEval(2).Canon()
	j.Accept(specA.Hash(), specA)
	j.Accept(specB.Hash(), specB)
	j.Stored(specA.Hash())
	j.Fail(specB.Hash(), "gone", ClassFatal)

	if err := j.Compact([]string{specA.Hash()}); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.StoredIDs) != 1 || len(rep.Pending) != 0 || rep.Failed != 0 {
		t.Errorf("after compact: %+v", rep)
	}

	// The compacted journal must still accept appends.
	specC, _ := smallEval(3).Canon()
	if err := j.Accept(specC.Hash(), specC); err != nil {
		t.Fatal(err)
	}
	rep, _ = ReplayJournal(dir)
	if len(rep.Pending) != 1 {
		t.Errorf("append after compact lost: %+v", rep)
	}
}

// TestJournalCompactNow drives the SIGHUP path: on-demand compaction of
// a live journal must shrink the file, keep one stored pointer per
// completed job, preserve pending accepts — repeated per replay
// generation, so the poison-job marker survives — drop terminal-failure
// history, report accurate stats, and leave the journal appendable.
func TestJournalCompactNow(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	done, _ := smallEval(1).Canon()
	pending, _ := smallEval(2).Canon()
	failed, _ := smallEval(3).Canon()

	// A noisy history: duplicate accepts for the completed job, two boot
	// generations for the pending one, and a terminal failure.
	j.Accept(done.Hash(), done)
	j.Accept(done.Hash(), done)
	j.Stored(done.Hash())
	j.Accept(pending.Hash(), pending)
	j.Accept(pending.Hash(), pending)
	j.Accept(failed.Hash(), failed)
	j.Fail(failed.Hash(), "rotten", ClassFatal)

	st, err := j.CompactNow()
	if err != nil {
		t.Fatal(err)
	}
	if st.StoredKept != 1 || st.PendingKept != 1 || st.DroppedFailed != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.BeforeBytes <= st.AfterBytes || st.AfterBytes <= 0 {
		t.Errorf("compaction did not shrink: %d -> %d bytes", st.BeforeBytes, st.AfterBytes)
	}

	rep, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.StoredIDs) != 1 || rep.StoredIDs[0] != done.Hash() {
		t.Errorf("stored after compaction = %+v", rep.StoredIDs)
	}
	if len(rep.Pending) != 1 || rep.Pending[0].Hash() != pending.Hash() {
		t.Errorf("pending after compaction = %+v", rep.Pending)
	}
	if rep.PendingAccepts[0] != 2 {
		t.Errorf("pending accept generations = %d, want 2 preserved", rep.PendingAccepts[0])
	}
	if rep.Failed != 0 {
		t.Errorf("failure history survived compaction: %d", rep.Failed)
	}

	// Still a live journal: appends keep landing after the rewrite.
	extra, _ := smallEval(4).Canon()
	if err := j.Accept(extra.Hash(), extra); err != nil {
		t.Fatal(err)
	}
	rep, _ = ReplayJournal(dir)
	if len(rep.Pending) != 2 {
		t.Errorf("append after CompactNow lost: %+v", rep)
	}

	// Nil receiver (no -journal configured) is a no-op, matching the
	// SIGHUP handler's unconditional call shape.
	var nilJ *Journal
	if _, err := nilJ.CompactNow(); err != nil {
		t.Errorf("nil CompactNow: %v", err)
	}
}

// TestJournalUnwritableDegrades: a journal whose file has been closed
// under it reports unhealthy (the /healthz degradation signal) but the
// pool keeps executing jobs.
func TestJournalUnwritableDegrades(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Healthy() {
		t.Fatal("fresh journal unhealthy")
	}
	j.Close()
	spec, _ := smallEval(1).Canon()
	if err := j.Accept(spec.Hash(), spec); err == nil {
		t.Fatal("append to closed journal succeeded")
	}
	if j.Healthy() {
		t.Error("failed append left journal healthy")
	}

	p := NewPool(Options{Workers: 1, Journal: j})
	res, err := p.Do(context.Background(), smallEval(1))
	if err != nil || res == nil {
		t.Fatalf("pool stopped serving on journal failure: %v", err)
	}
	if p.Metrics().JournalErrors.Load() == 0 {
		t.Error("journal errors not counted")
	}
}

// TestRecoveryFailsPoisonJobsTerminally: a pending job whose accept
// count shows it has already been replayed MaxReplayGenerations times is
// the crash-loop signature (it hard-kills the process on every boot, so
// no terminal record ever lands). Recovery must fail it terminally and
// move on instead of re-executing it forever.
func TestRecoveryFailsPoisonJobsTerminally(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	poison, _ := smallEval(1).Canon()
	healthy, _ := smallEval(2).Canon()
	// One accept per boot generation: the original plus
	// MaxReplayGenerations replays, none of which reached a terminal
	// record.
	for i := 0; i <= MaxReplayGenerations; i++ {
		if err := j.Accept(poison.Hash(), poison); err != nil {
			t.Fatal(err)
		}
	}
	// A job one generation younger must still be replayed.
	for i := 0; i < MaxReplayGenerations; i++ {
		if err := j.Accept(healthy.Hash(), healthy); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	p := NewPool(Options{Workers: 1, Journal: j2})
	ran := map[string]int{}
	p.runFn = func(ctx context.Context, c Spec, _ int) (*Result, error) {
		ran[c.Hash()]++
		return &Result{ID: c.Hash(), Kind: c.Kind, Spec: c}, nil
	}
	stats, err := RecoverFromJournal(context.Background(), p, dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReplaysExhausted != 1 {
		t.Errorf("replays exhausted = %d, want 1", stats.ReplaysExhausted)
	}
	if stats.Resubmitted != 1 {
		t.Errorf("resubmitted = %d, want only the healthy job", stats.Resubmitted)
	}
	if ran[poison.Hash()] != 0 {
		t.Errorf("poison job re-executed %d times", ran[poison.Hash()])
	}
	if ran[healthy.Hash()] != 1 {
		t.Errorf("healthy job ran %d times, want 1", ran[healthy.Hash()])
	}
	if got := p.Metrics().JournalReplaysExhausted.Load(); got != 1 {
		t.Errorf("replays_exhausted metric = %d", got)
	}

	// The verdict converges: the next boot sees nothing pending — the
	// poison job is terminal, the healthy one completed.
	rep, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pending) != 0 {
		t.Errorf("post-recovery journal still has %d pending jobs", len(rep.Pending))
	}
}

// TestReplayCountsAcceptGenerations: ReplayJournal reports one accept
// per boot generation for pending jobs, the marker the poison cap keys
// on.
func TestReplayCountsAcceptGenerations(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := smallEval(1).Canon()
	j.Accept(spec.Hash(), spec)
	j.Accept(spec.Hash(), spec)
	j.Close()

	rep, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pending) != 1 || len(rep.PendingAccepts) != 1 {
		t.Fatalf("pending = %d, accepts = %d", len(rep.Pending), len(rep.PendingAccepts))
	}
	if rep.PendingAccepts[0] != 2 {
		t.Errorf("accept generations = %d, want 2", rep.PendingAccepts[0])
	}
}

// TestPoolJournalsLifecycle: accepted and completed jobs land in the
// journal with enough to recover: the accept's canonical spec and, once
// the job finished, a stored pointer — never the result itself.
func TestPoolJournalsLifecycle(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	p := NewPool(Options{Workers: 1, Journal: j})
	res, err := p.Do(context.Background(), smallEval(1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.StoredIDs) != 1 || rep.StoredIDs[0] != res.ID {
		t.Fatalf("journal stored = %+v", rep.StoredIDs)
	}
	if len(rep.Pending) != 0 {
		t.Errorf("finished job still pending: %+v", rep.PendingIDs)
	}
	if p.Metrics().JournalAccepted.Load() != 1 || p.Metrics().JournalStored.Load() != 1 {
		t.Errorf("journal counters: accepted=%d stored=%d",
			p.Metrics().JournalAccepted.Load(), p.Metrics().JournalStored.Load())
	}
}

// TestStoredPointerFollowsPut: with a store attached, the stored pointer
// is written only once the CAS put succeeded, so every pointer in the
// journal names a body the store holds.
func TestStoredPointerFollowsPut(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	s := openTestStore(t, filepath.Join(dir, "store"))
	defer s.Close()
	p := NewPool(Options{Workers: 1, Journal: j, Store: s})
	res, err := p.Do(context.Background(), smallEval(1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayJournal(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.StoredIDs) != 1 || rep.StoredIDs[0] != res.ID || !s.Has(res.ID) {
		t.Errorf("stored pointers %v, store holds the body: %v", rep.StoredIDs, s.Has(res.ID))
	}
}

// TestFailedPutLeavesAcceptPending: a CAS put that fails counts a CAS
// error and writes no pointer. The request is still answered, the
// job's accept stays pending, and the next boot recomputes the result,
// stores it and points at it.
func TestFailedPutLeavesAcceptPending(t *testing.T) {
	dir := t.TempDir()
	journalDir, storeDir := filepath.Join(dir, "journal"), filepath.Join(dir, "store")
	j1, err := OpenJournal(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := openTestStore(t, storeDir)
	s1.Close() // every put now fails
	p1 := NewPool(Options{Workers: 1, Journal: j1, Store: s1})
	a, err := p1.Serve(context.Background(), smallEval(1))
	if err != nil {
		t.Fatalf("a failed put must not fail the request: %v", err)
	}
	if got := p1.Metrics().CASErrors.Load(); got != 1 {
		t.Errorf("cas errors = %d, want 1", got)
	}
	if got := p1.Metrics().JournalStored.Load(); got != 0 {
		t.Errorf("stored pointers = %d, want 0 after a failed put", got)
	}
	j1.Close()
	rep, err := ReplayJournal(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PendingIDs) != 1 || rep.PendingIDs[0] != a.ID || len(rep.StoredIDs) != 0 {
		t.Fatalf("journal after failed put: pending %v, stored %v", rep.PendingIDs, rep.StoredIDs)
	}

	j2, err := OpenJournal(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	s2 := openTestStore(t, storeDir)
	defer s2.Close()
	p2 := NewPool(Options{Workers: 1, Journal: j2, Store: s2})
	stats, err := RecoverFromJournal(context.Background(), p2, journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resubmitted != 1 || p2.Metrics().JobsStarted.Load() != 1 {
		t.Errorf("boot re-ran %d jobs (%d started), want the one whose put failed",
			stats.Resubmitted, p2.Metrics().JobsStarted.Load())
	}
	body, ok := s2.Get(a.ID)
	if !ok || !bytes.Equal(body, a.Body) {
		t.Errorf("boot did not store the recomputed result byte-identically (held %v)", ok)
	}
	rep, err = ReplayJournal(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.StoredIDs) != 1 || rep.StoredIDs[0] != a.ID || len(rep.Pending) != 0 {
		t.Errorf("journal after recovery: stored %v, pending %d", rep.StoredIDs, len(rep.Pending))
	}
}

// TestOldJournalDoneLinesIgnored: the "done" records older journals wrote
// carry a full result, and nothing reads them any more. A job with an
// accept and a done line re-runs once at the first boot and is stored
// like any other; a done line with no accept (what old compactions left)
// names nothing. The stale body is never served: the done line below
// carries a wrong payload, and the answer is the recomputed one.
func TestOldJournalDoneLinesIgnored(t *testing.T) {
	dir := t.TempDir()
	journalDir, storeDir := filepath.Join(dir, "journal"), filepath.Join(dir, "store")
	if err := os.MkdirAll(journalDir, 0o755); err != nil {
		t.Fatal(err)
	}
	rerun, _ := smallEval(1).Canon()
	orphan, _ := smallEval(2).Canon()
	spec, err := json.Marshal(rerun)
	if err != nil {
		t.Fatal(err)
	}
	old := fmt.Sprintf(`{"op":"accept","id":%[1]q,"spec":%[2]s}
{"op":"done","id":%[1]q,"result":{"id":%[1]q,"kind":"evaluate","spec":%[2]s,"evaluation":{"shipped_mhz":1}}}
{"op":"done","id":%[3]q,"result":{"id":%[3]q,"kind":"evaluate"}}
`, rerun.Hash(), spec, orphan.Hash())
	if err := os.WriteFile(filepath.Join(journalDir, journalFile), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayJournal(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PendingIDs) != 1 || rep.PendingIDs[0] != rerun.Hash() || len(rep.StoredIDs)+rep.Failed != 0 {
		t.Fatalf("old journal replays as pending %v, stored %v, failed %d; want only the accept pending",
			rep.PendingIDs, rep.StoredIDs, rep.Failed)
	}

	boot := func() (*Pool, RecoverStats, func()) {
		j, err := OpenJournal(journalDir)
		if err != nil {
			t.Fatal(err)
		}
		s := openTestStore(t, storeDir)
		p := NewPool(Options{Workers: 1, Journal: j, Store: s})
		stats, err := RecoverFromJournal(context.Background(), p, journalDir)
		if err != nil {
			t.Fatal(err)
		}
		return p, stats, func() { s.Close(); j.Close() }
	}
	p, stats, stop := boot()
	if stats.Resubmitted != 1 || stats.WarmedStore != 0 || p.Metrics().JobsStarted.Load() != 1 {
		t.Errorf("first boot: resubmitted %d, warmed %d, started %d; want 1, 0, 1",
			stats.Resubmitted, stats.WarmedStore, p.Metrics().JobsStarted.Load())
	}
	if p.HasStored(orphan.Hash()) {
		t.Error("a done line with no accept surfaced a result")
	}
	ref := serialReference(t, []Spec{rerun})
	a, err := p.Serve(context.Background(), rerun)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Body, ref[a.ID]) {
		t.Error("served the old done line's body, not the recomputed result")
	}
	stop()

	// The second boot finds a stored pointer: the re-run happened once.
	p, stats, stop = boot()
	defer stop()
	if stats.Resubmitted != 0 || stats.WarmedStore != 1 || p.Metrics().JobsStarted.Load() != 0 {
		t.Errorf("second boot: resubmitted %d, warmed %d, started %d; want 0, 1, 0",
			stats.Resubmitted, stats.WarmedStore, p.Metrics().JobsStarted.Load())
	}
}
