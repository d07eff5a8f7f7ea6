package cas

import (
	"errors"
	"fmt"
	"os"
	"testing"
	"time"
)

// corruptOnDisk flips one byte of addr's live record at relative
// offset rel inside its segment file, simulating bit rot under a
// running store.
func corruptOnDisk(t *testing.T, s *Store, addr string, rel int64) {
	t.Helper()
	s.mu.Lock()
	loc, ok := s.index[addr]
	var path string
	if ok {
		path = s.segs[loc.seg].path
	}
	s.mu.Unlock()
	if !ok {
		t.Fatalf("corruptOnDisk: %s not indexed", addr)
	}
	if rel < 0 || rel >= loc.size {
		t.Fatalf("corruptOnDisk: rel %d outside record of %d bytes", rel, loc.size)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], loc.off+rel); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], loc.off+rel); err != nil {
		t.Fatal(err)
	}
}

// scrubFullPass drives ScrubStep in small increments until a pass
// completes, returning the total scanned/corrupt for the pass.
func scrubFullPass(t *testing.T, s *Store, step int) ScrubProgress {
	t.Helper()
	var total ScrubProgress
	for i := 0; i < 100000; i++ {
		pr := s.ScrubStep(step)
		total.Scanned += pr.Scanned
		total.Corrupt += pr.Corrupt
		if pr.PassComplete {
			total.PassComplete = true
			return total
		}
	}
	t.Fatal("scrub pass never completed")
	return total
}

func TestScrubCleanPass(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{ScrubSeed: 7})
	const n = 50
	for i := 0; i < n; i++ {
		label := fmt.Sprintf("clean-%d", i)
		if err := s.Put(testAddr(label), testBody(label)); err != nil {
			t.Fatal(err)
		}
	}
	// Pass 1 starts at the seeded position; pass 2 covers the full set.
	scrubFullPass(t, s, 7)
	second := scrubFullPass(t, s, 7)
	if second.Scanned != n {
		t.Errorf("second pass scanned %d records, want %d", second.Scanned, n)
	}
	st := s.Stats()
	if st.ScrubCorrupt != 0 || st.Quarantined != 0 {
		t.Errorf("clean store reported corrupt=%d quarantined=%d", st.ScrubCorrupt, st.Quarantined)
	}
	if st.ScrubPasses != 2 {
		t.Errorf("passes = %d, want 2", st.ScrubPasses)
	}
	if st.ScrubVerified < n {
		t.Errorf("verified = %d, want >= %d", st.ScrubVerified, n)
	}
	if st.ScrubCursor == "" {
		t.Error("stats did not render a scrub cursor")
	}
}

func TestScrubDetectsQuarantinesAndRepairs(t *testing.T) {
	// Automatic compaction disabled so the damaged segment stays put
	// for inspection; the trigger path is covered separately below.
	s := openTest(t, t.TempDir(), Options{CompactDeadFrac: -1, ScrubSeed: 1})
	const n = 20
	for i := 0; i < n; i++ {
		label := fmt.Sprintf("rot-%d", i)
		if err := s.Put(testAddr(label), testBody(label)); err != nil {
			t.Fatal(err)
		}
	}
	// Three flavors of rot: a body byte, a header (address) byte, and a
	// byte of the stored digest.
	bad := []string{testAddr("rot-3"), testAddr("rot-8"), testAddr("rot-15")}
	corruptOnDisk(t, s, bad[0], headerSize+2) // body
	corruptOnDisk(t, s, bad[1], 5)            // addr inside the header
	corruptOnDisk(t, s, bad[2], 40)           // digest inside the header

	scrubFullPass(t, s, 3)
	scrubFullPass(t, s, 3) // second pass covers any seeded-start skip

	st := s.Stats()
	if st.ScrubCorrupt != 3 {
		t.Fatalf("scrub found %d corrupt records, want 3", st.ScrubCorrupt)
	}
	if st.Quarantined != 3 {
		t.Fatalf("quarantined = %d, want 3", st.Quarantined)
	}
	rep := s.ScrubReport()
	if len(rep) != 3 {
		t.Fatalf("scrub report has %d entries, want 3", len(rep))
	}
	for i, e := range rep {
		if e.Reason == "" {
			t.Errorf("report entry %d has no reason", i)
		}
		if i > 0 && rep[i-1].Addr >= e.Addr {
			t.Error("scrub report not sorted by address")
		}
	}
	for _, addr := range bad {
		if !s.Quarantined(addr) {
			t.Errorf("%s not quarantined", addr)
		}
		if _, ok := s.Get(addr); ok {
			t.Errorf("%s served after being condemned", addr)
		}
	}
	// Healthy records are untouched.
	for i := 0; i < n; i++ {
		label := fmt.Sprintf("rot-%d", i)
		if i == 3 || i == 8 || i == 15 {
			continue
		}
		if body, ok := s.Get(testAddr(label)); !ok || string(body) != string(testBody(label)) {
			t.Fatalf("healthy record %d damaged by scrub", i)
		}
	}

	// A verified re-Put heals the quarantine and counts the repair.
	if err := s.Put(bad[0], testBody("rot-3")); err != nil {
		t.Fatal(err)
	}
	if s.Quarantined(bad[0]) {
		t.Error("re-Put did not clear the quarantine")
	}
	if got := s.Stats().ScrubRepaired; got != 1 {
		t.Errorf("scrub_repaired = %d, want 1", got)
	}
	if body, ok := s.Get(bad[0]); !ok || string(body) != string(testBody("rot-3")) {
		t.Error("repaired record not served")
	}
}

func TestScrubTriggersCompaction(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{SegmentBytes: 4 << 10})
	const n = 30
	for i := 0; i < n; i++ {
		label := fmt.Sprintf("tc-%d", i)
		if err := s.Put(testAddr(label), testBody(label)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Compactions()
	corruptOnDisk(t, s, testAddr("tc-4"), headerSize+1)
	scrubFullPass(t, s, 64)
	scrubFullPass(t, s, 64)
	deadline := time.Now().Add(5 * time.Second)
	for s.Compactions() == before {
		if time.Now().After(deadline) {
			t.Fatal("scrub-detected corruption did not trigger a compaction")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The rewrite must carry every healthy record and stay serviceable.
	for i := 0; i < n; i++ {
		if i == 4 {
			continue
		}
		label := fmt.Sprintf("tc-%d", i)
		if body, ok := s.Get(testAddr(label)); !ok || string(body) != string(testBody(label)) {
			t.Fatalf("record %d lost across the corruption-triggered compaction", i)
		}
	}
	if !s.Quarantined(testAddr("tc-4")) {
		t.Error("compaction cleared the quarantine without a repair")
	}
}

func TestScrubCursorDeterministic(t *testing.T) {
	build := func(dir string) *Store {
		s := openTest(t, dir, Options{ScrubSeed: 42, CompactDeadFrac: -1})
		for i := 0; i < 40; i++ {
			label := fmt.Sprintf("det-%d", i)
			if err := s.Put(testAddr(label), testBody(label)); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	a, b := build(t.TempDir()), build(t.TempDir())
	for step := 0; step < 25; step++ {
		pa, pb := a.ScrubStep(3), b.ScrubStep(3)
		if pa != pb {
			t.Fatalf("step %d diverged: %+v vs %+v", step, pa, pb)
		}
		ca, cb := a.Stats().ScrubCursor, b.Stats().ScrubCursor
		if ca != cb {
			t.Fatalf("step %d cursor diverged: %s vs %s", step, ca, cb)
		}
	}
}

func TestGetEClassifiesCorruptVsAbsent(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{CompactDeadFrac: -1})
	addr := testAddr("gete")
	if err := s.Put(addr, testBody("gete")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetE(testAddr("never")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent address: got %v, want ErrNotFound", err)
	}
	corruptOnDisk(t, s, addr, headerSize+3)
	_, err := s.GetE(addr)
	if err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt read: got %v, want a verification error", err)
	}
	if !s.Quarantined(addr) {
		t.Error("corrupt read did not quarantine the address")
	}
	// The corruption is surfaced exactly once; afterwards it is a miss.
	if _, err := s.GetE(addr); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second read: got %v, want ErrNotFound", err)
	}
}

// TestCompactionVerdictCountsAsScrub pins the ordering a scrub step's
// own background compaction can take: the compaction rewrite reaches a
// rotten record before the scrubber does. The record is condemned once,
// by whichever walk gets there first, and scrub_corrupt counts it either
// way — the drill in internal/cluster asserts scrub_corrupt against the
// injected fault count, which flaked when compaction won that race.
func TestCompactionVerdictCountsAsScrub(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{CompactDeadFrac: -1, ScrubSeed: 1})
	const n = 12
	for i := 0; i < n; i++ {
		label := fmt.Sprintf("cv-%d", i)
		if err := s.Put(testAddr(label), testBody(label)); err != nil {
			t.Fatal(err)
		}
	}
	corruptOnDisk(t, s, testAddr("cv-2"), headerSize+1)
	corruptOnDisk(t, s, testAddr("cv-9"), 5)

	// Compaction first, as when the scrub-triggered pass wins the race.
	st, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.DroppedCorrupt != 2 {
		t.Fatalf("compaction dropped %d corrupt records, want 2", st.DroppedCorrupt)
	}
	scrubFullPass(t, s, 4)
	scrubFullPass(t, s, 4)
	got := s.Stats()
	if got.ScrubCorrupt != 2 || got.Quarantined != 2 || got.CorruptDropped != 2 {
		t.Errorf("scrub_corrupt %d, quarantined %d, corrupt_dropped %d; want 2 each",
			got.ScrubCorrupt, got.Quarantined, got.CorruptDropped)
	}
}
