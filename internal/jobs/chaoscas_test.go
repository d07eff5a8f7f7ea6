package jobs

// The chaos-cas suite: crash drills for the tiered result store. The
// acceptance properties are the ISSUE's — a cache-cold restart serves
// the full corpus with zero recomputes (the pool's JobsStarted delta is
// exactly zero), a kill mid-segment-write costs at most a torn-tail
// truncation and never a wrong or duplicated result, every served body
// stays byte-identical to the serial fault-free reference, and a
// working set 4x the RAM cache capacity sustains >90% combined-tier
// hits. Seeds follow the fixed chaos matrix; `make chaos-cas` runs the
// suite under -race.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cas"
	"repro/internal/faultinject"
)

// casCorpus is the evaluate-only working set sized against the RAM
// cache: with casCacheEntries=8, the 32 distinct specs are exactly 4x
// the cache capacity, so a full sweep cannot be served from RAM alone.
const (
	casCacheEntries = 8
	casCorpusSize   = 4 * casCacheEntries
)

func casCorpus() []Spec {
	specs := make([]Spec, 0, casCorpusSize)
	for s := int64(0); s < casCorpusSize; s++ {
		specs = append(specs, Spec{
			Kind:        KindEvaluate,
			Design:      DesignSpec{Name: "datapath", Width: 8, Depth: 2},
			Methodology: MethSpec{Base: "typical"},
			Seed:        s,
		})
	}
	return specs
}

// openTestStore opens a CAS store with small segments so the corpus
// spans several files (the restart scan and torn-tail logic get real
// work). Automatic compaction stays enabled — the drill must hold under
// the production write path.
func openTestStore(t *testing.T, dir string) *cas.Store {
	t.Helper()
	s, err := cas.Open(cas.Options{Dir: dir, SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestChaosCASColdRestartZeroRecompute is the warm-restart acceptance
// drill: a corpus 4x the RAM cache is computed once, the process
// "dies" cleanly, and a restarted pool with a cold cache must re-serve
// every result from the rebuilt segment index — JobsStarted stays
// exactly zero, every body is byte-identical to the serial reference,
// and the combined RAM+CAS hit rate over the sweep exceeds 90%.
func TestChaosCASColdRestartZeroRecompute(t *testing.T) {
	specs := casCorpus()
	ref := serialReference(t, specs)

	dir := t.TempDir()
	journalDir := filepath.Join(dir, "journal")
	storeDir := filepath.Join(dir, "store")

	j1, err := OpenJournal(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := openTestStore(t, storeDir)
	p1 := NewPool(Options{
		Workers: 4, CacheEntries: casCacheEntries,
		Journal: j1, Store: s1,
	})
	for i, s := range specs {
		if _, err := p1.Do(context.Background(), s); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
	}
	if got := p1.Metrics().JournalStored.Load(); got != int64(len(specs)) {
		t.Fatalf("journal stored pointers = %d, want %d (results not going to the store?)",
			got, len(specs))
	}
	s1.Close()
	j1.Close() // the "process" dies after a clean run

	// Restart: the journal replay resolves every stored pointer from
	// the rebuilt segment index; nothing is recomputed at boot.
	j2, err := OpenJournal(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	s2 := openTestStore(t, storeDir)
	defer s2.Close()
	if got := s2.Len(); got != len(specs) {
		t.Fatalf("index rebuilt %d records, want %d", got, len(specs))
	}
	p2 := NewPool(Options{
		Workers: 4, CacheEntries: casCacheEntries,
		Journal: j2, Store: s2,
	})
	stats, err := RecoverFromJournal(context.Background(), p2, journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WarmedStore != len(specs) {
		t.Errorf("warmed from store = %d, want %d", stats.WarmedStore, len(specs))
	}
	if stats.Resubmitted != 0 {
		t.Errorf("recovery re-ran %d jobs, want 0", stats.Resubmitted)
	}
	if got := p2.Metrics().JobsStarted.Load(); got != 0 {
		t.Fatalf("recovery recomputed %d jobs", got)
	}

	// The full-corpus sweep: the cache holds at most 1/4 of the working
	// set, so most answers come off disk — but none are recomputed.
	m := p2.Metrics()
	ramBefore, casBefore := m.CacheHits.Load(), m.CASHits.Load()
	for i, s := range specs {
		a, err := p2.Serve(context.Background(), s)
		if err != nil {
			t.Fatalf("spec %d after restart: %v", i, err)
		}
		if a.By == ServedCompute {
			t.Errorf("spec %d recomputed after restart", i)
		}
		if !bytes.Equal(a.Body, ref[a.ID]) {
			t.Errorf("spec %d: restart result differs from serial reference", i)
		}
	}
	if got := m.JobsStarted.Load(); got != 0 {
		t.Fatalf("cold-cache sweep recomputed %d jobs, want exactly 0", got)
	}
	hits := (m.CacheHits.Load() - ramBefore) + (m.CASHits.Load() - casBefore)
	if rate := float64(hits) / float64(len(specs)); rate <= 0.9 {
		t.Errorf("combined-tier hit rate %.2f, want > 0.90", rate)
	}

	// The compacted journal is slim: stored pointers only, no bodies.
	rep, err := ReplayJournal(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.StoredIDs) != len(specs) || len(rep.Pending) != 0 {
		t.Errorf("post-recovery journal: %d stored, %d pending; want %d/0",
			len(rep.StoredIDs), len(rep.Pending), len(specs))
	}
}

// TestChaosCASKillMidWrite is the torn-tail drill, per chaos seed: jobs
// are killed mid-run by injected process kills, the crash additionally
// lands mid-append on the store's active segment (a half-written record
// at the tail — exactly what a power cut leaves), and the restarted
// store must truncate the tear, serve every completed result with no
// recompute, and re-run only the killed jobs — byte-identical outputs
// throughout.
func TestChaosCASKillMidWrite(t *testing.T) {
	specs := casCorpus()
	ref := serialReference(t, specs)

	for _, seed := range chaosSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			journalDir := filepath.Join(dir, "journal")
			storeDir := filepath.Join(dir, "store")

			j1, err := OpenJournal(journalDir)
			if err != nil {
				t.Fatal(err)
			}
			s1 := openTestStore(t, storeDir)
			in := faultinject.New(faultinject.Plan{
				Seed: seed, KillRate: 0.3, Match: "pool/",
			})
			p1 := NewPool(Options{
				Workers: 2, CacheEntries: casCacheEntries,
				Journal: j1, Store: s1, Injector: in,
			})
			killed := 0
			for i, s := range specs {
				if _, err := p1.Do(context.Background(), s); err != nil {
					if !errors.Is(err, ErrKilled) {
						t.Fatalf("spec %d: unexpected failure: %v", i, err)
					}
					killed++
				}
			}
			if killed == 0 || killed == len(specs) {
				t.Fatalf("kill schedule degenerate: %d/%d killed", killed, len(specs))
			}
			s1.Close()
			j1.Close()

			// The crash lands mid-append: half of one record reaches the
			// active segment — a Put that was never acknowledged.
			tornAddr := sha256.Sum256([]byte(fmt.Sprintf("torn-%d", seed)))
			enc, err := cas.EncodeRecord(hex.EncodeToString(tornAddr[:]), []byte(`{"torn":true}`))
			if err != nil {
				t.Fatal(err)
			}
			seg := newestSegment(t, storeDir)
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(enc[:len(enc)/2]); err != nil {
				t.Fatal(err)
			}
			f.Close()

			// Restart: the tear is truncated, the index rebuilds, the
			// journal replay re-runs exactly the killed jobs.
			j2, err := OpenJournal(journalDir)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			s2 := openTestStore(t, storeDir)
			defer s2.Close()
			if got := s2.Stats().TornTails; got != 1 {
				t.Errorf("torn tails on reopen = %d, want 1", got)
			}
			if got := s2.Len(); got != len(specs)-killed {
				t.Errorf("index rebuilt %d records, want %d", got, len(specs)-killed)
			}
			p2 := NewPool(Options{
				Workers: 2, CacheEntries: casCacheEntries,
				Journal: j2, Store: s2,
			})
			stats, err := RecoverFromJournal(context.Background(), p2, journalDir)
			if err != nil {
				t.Fatal(err)
			}
			if stats.WarmedStore != len(specs)-killed {
				t.Errorf("warmed from store = %d, want %d", stats.WarmedStore, len(specs)-killed)
			}
			if stats.Resubmitted != killed || stats.FailedReplays != 0 {
				t.Errorf("resubmitted = %d (failed %d), want %d",
					stats.Resubmitted, stats.FailedReplays, killed)
			}
			if got := p2.Metrics().JobsStarted.Load(); got != int64(killed) {
				t.Errorf("recovery ran %d jobs, want exactly the %d killed", got, killed)
			}

			// After recovery the full corpus serves without another
			// compute, byte-identical to the uninterrupted reference.
			started := p2.Metrics().JobsStarted.Load()
			for i, s := range specs {
				a, err := p2.Serve(context.Background(), s)
				if err != nil {
					t.Fatalf("spec %d after recovery: %v", i, err)
				}
				if a.By == ServedCompute {
					t.Errorf("spec %d recomputed after recovery", i)
				}
				if !bytes.Equal(a.Body, ref[a.ID]) {
					t.Errorf("spec %d: recovered result differs from uninterrupted run", i)
				}
			}
			if got := p2.Metrics().JobsStarted.Load(); got != started {
				t.Errorf("post-recovery sweep recomputed %d jobs, want 0", got-started)
			}
		})
	}
}

// TestChaosCASCrashBetweenStorePutAndJournal covers the narrowest
// window: the CAS write is durable but the process dies before the slim
// "stored" journal line lands. The accept looks pending on replay, but
// recovery must resolve it from the store index — a recompute here
// would double-run a job whose result already exists on disk.
func TestChaosCASCrashBetweenStorePutAndJournal(t *testing.T) {
	spec, err := Spec{
		Kind:        KindEvaluate,
		Design:      DesignSpec{Name: "datapath", Width: 8, Depth: 2},
		Methodology: MethSpec{Base: "typical"},
		Seed:        1,
	}.Canon()
	if err != nil {
		t.Fatal(err)
	}
	ref := serialReference(t, []Spec{spec})

	dir := t.TempDir()
	journalDir := filepath.Join(dir, "journal")
	storeDir := filepath.Join(dir, "store")

	// Simulate the window by hand: journal the accept (fsynced, as the
	// pool would before running) and put the result body into the store,
	// but never write the stored pointer.
	j1, err := OpenJournal(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Accept(spec.Hash(), spec); err != nil {
		t.Fatal(err)
	}
	s1 := openTestStore(t, storeDir)
	res, err := Run(context.Background(), spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(st.ID, st.Body); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	j1.Close()

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
	if stats.Resubmitted != 0 {
		t.Errorf("recovery re-ran %d jobs despite a durable store body", stats.Resubmitted)
	}
	if stats.WarmedStore != 1 {
		t.Errorf("warmed from store = %d, want 1", stats.WarmedStore)
	}
	if got := p2.Metrics().JobsStarted.Load(); got != 0 {
		t.Fatalf("recovery recomputed %d jobs, want 0", got)
	}
	got, err := p2.Do(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normalizedJSON(t, got), ref[got.ID]) {
		t.Error("recovered result differs from serial reference")
	}
}

// newestSegment returns the path of the highest-numbered (active)
// segment file in dir.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".cas" && e.Name() > newest {
			newest = e.Name()
		}
	}
	if newest == "" {
		t.Fatal("no segment files found")
	}
	return filepath.Join(dir, newest)
}
