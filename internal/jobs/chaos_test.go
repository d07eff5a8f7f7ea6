package jobs

// The chaos suite: deterministic fault injection at every pool and
// flow-stage seam, proving the acceptance properties of the failure
// layer — every job runs once, none is lost or double-reported, the
// cache never holds a partial or failed result, and every answer that
// does complete is byte-identical to the serial, fault-free reference.
// Every test uses a fixed seed matrix (chaosSeeds), and the injector's
// fault schedule is a pure function of (seed, job, stage), so these
// tests are reproducible and non-flaky by construction: `make chaos`
// runs them under -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// chaosSeeds is the fixed seed matrix the chaos suite runs under.
var chaosSeeds = []int64{1, 7, 42}

// chaosBatch is a mixed workload: cheap evaluates, a factor ladder, and
// a depth sweep, all small enough to run under -race in CI.
func chaosBatch() []Spec {
	specs := []Spec{
		{Kind: KindLadder, Design: DesignSpec{Name: "datapath", Width: 8, Depth: 2}, Seed: 3},
		{Kind: KindSweep, Design: DesignSpec{Name: "datapath", Width: 8, Depth: 2},
			Methodology: MethSpec{Base: "best-practice"}, MaxStages: 3, Workload: "integer", Seed: 3},
	}
	for s := int64(0); s < 4; s++ {
		specs = append(specs, Spec{
			Kind:        KindEvaluate,
			Design:      DesignSpec{Name: "datapath", Width: 8, Depth: 2},
			Methodology: MethSpec{Base: "typical"},
			Seed:        s,
		})
	}
	return specs
}

// normalizedJSON is the byte-exact comparison key for a result: the
// canonical envelope minus run-dependent fields (timing, cache/service
// annotations).
func normalizedJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(res.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// serialReference runs every spec serially with no pool, no injection,
// and parallelism 1 — the ground truth the chaos runs must match.
func serialReference(t *testing.T, specs []Spec) map[string][]byte {
	t.Helper()
	ref := make(map[string][]byte, len(specs))
	for _, s := range specs {
		res, err := Run(context.Background(), s, 1)
		if err != nil {
			t.Fatalf("serial reference %s: %v", s.Kind, err)
		}
		ref[res.ID] = normalizedJSON(t, res)
	}
	return ref
}

// chaosOutcome is one spec's fate in a chaos batch.
type chaosOutcome struct {
	ans Answer
	err error
}

// runChaosBatch serves the batch concurrently on a fresh pool injecting
// errors, panics, latency spikes and cancellation storms at every pool
// and stage seam under the given seed.
func runChaosBatch(specs []Spec, seed int64) ([]chaosOutcome, *Pool) {
	in := faultinject.New(faultinject.Plan{
		Seed:        seed,
		ErrorRate:   0.010,
		PanicRate:   0.006,
		LatencyRate: 0.010,
		CancelRate:  0.006,
		Latency:     2 * time.Millisecond,
	})
	p := NewPool(Options{
		Workers:     4,
		Parallelism: 2,
		Injector:    in,
	})
	out := make([]chaosOutcome, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func(i int, s Spec) {
			defer wg.Done()
			out[i].ans, out[i].err = p.Serve(context.Background(), s)
		}(i, s)
	}
	wg.Wait()
	return out, p
}

// TestChaosExactUnderFaults is the acceptance test for the fault layer's
// one-attempt contract: with errors, panics, latency spikes, and
// cancellation storms injected at every pool and stage seam, every job
// in a concurrent mixed batch either completes byte-identical to the
// serial fault-free reference or fails with a typed error, exactly once;
// the cache holds exactly the successes; and the success/failure
// partition is a pure function of the seed.
func TestChaosExactUnderFaults(t *testing.T) {
	specs := chaosBatch()
	ref := serialReference(t, specs)

	var succeeded, failed int
	for _, seed := range chaosSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			out, p := runChaosBatch(specs, seed)

			ok := 0
			for i, o := range out {
				if o.err != nil {
					if !errors.Is(o.err, ErrPanicked) && !errors.Is(o.err, faultinject.ErrInjected) &&
						!errors.Is(o.err, context.Canceled) {
						t.Errorf("spec %d (%s) failed with an untyped error: %v", i, specs[i].Kind, o.err)
					}
					failed++
					continue
				}
				ok++
				succeeded++
				want, found := ref[o.ans.ID]
				if !found {
					t.Fatalf("spec %d returned unknown id %s", i, o.ans.ID)
				}
				if !bytes.Equal(o.ans.Body, want) {
					t.Errorf("spec %d (%s): chaos result differs from serial reference\n got: %s\nwant: %s",
						i, specs[i].Kind, o.ans.Body, want)
				}
			}

			m := p.Metrics()
			// No lost or double-reported jobs: every spec maps to
			// exactly one completion or one failure.
			if got := m.JobsCompleted.Load(); got != int64(ok) {
				t.Errorf("completed = %d, want %d", got, ok)
			}
			if got := m.JobsCompleted.Load() + m.JobsFailed.Load(); got != int64(len(specs)) {
				t.Errorf("completed + failed = %d, want %d", got, len(specs))
			}
			// The cache holds exactly the completed results, never a
			// partial one or a failure: every entry is the reference.
			if p.Cache().Len() != ok {
				t.Errorf("cache entries = %d, want %d", p.Cache().Len(), ok)
			}
			for i, o := range out {
				id := specs[i].Hash()
				st, cached := p.Cache().Get(id)
				if cached != (o.err == nil) {
					t.Errorf("spec %d: cached = %v, failed = %v", i, cached, o.err != nil)
					continue
				}
				if cached && !bytes.Equal(st.Body, ref[id]) {
					t.Errorf("cache entry %s differs from reference", id[:12])
				}
			}

			// The partition is the seed's: a fresh pool fails the same
			// specs.
			again, _ := runChaosBatch(specs, seed)
			for i := range out {
				if (out[i].err == nil) != (again[i].err == nil) {
					t.Errorf("spec %d (%s): failed = %v, then %v on a fresh pool at the same seed",
						i, specs[i].Kind, out[i].err != nil, again[i].err != nil)
				}
			}
		})
	}
	if succeeded == 0 || failed == 0 {
		t.Errorf("%d successes and %d failures across the seeds; the batch must see both", succeeded, failed)
	}
}

// TestChaosScheduleDeterministic: the same seed injects the same faults
// regardless of run — the property that makes the suite non-flaky.
func TestChaosScheduleDeterministic(t *testing.T) {
	specs := chaosBatch()
	counts := func() (panics, failed, injected int64) {
		in := faultinject.New(faultinject.Plan{
			Seed:      7,
			ErrorRate: 0.08,
			PanicRate: 0.04,
		})
		p := NewPool(Options{
			Workers: 1, Parallelism: 1,
			Injector: in,
		})
		for _, s := range specs {
			if _, err := p.Do(context.Background(), s); err != nil &&
				!errors.Is(err, ErrPanicked) && !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("%s: %v", s.Kind, err)
			}
		}
		return p.Metrics().JobsPanicked.Load(), p.Metrics().JobsFailed.Load(),
			in.Errors.Load() + in.Panics.Load()
	}
	p1, f1, i1 := counts()
	p2, f2, i2 := counts()
	if p1 != p2 || f1 != f2 || i1 != i2 {
		t.Errorf("schedules diverged: (%d,%d,%d) vs (%d,%d,%d)", p1, f1, i1, p2, f2, i2)
	}
	if i1 == 0 {
		t.Error("plan injected nothing; rates too low to test anything")
	}
}

// TestChaosFailedJobsNeverCached: a panicking job fails after one
// fenced run with a typed error, and the cache holds nothing for it.
func TestChaosFailedJobsNeverCached(t *testing.T) {
	in := faultinject.New(faultinject.Plan{Seed: 1, PanicRate: 1})
	p := NewPool(Options{
		Workers:  2,
		Injector: in,
	})
	_, err := p.Do(context.Background(), smallEval(1))
	if err == nil {
		t.Fatal("job with 100% panic injection succeeded")
	}
	if !errors.Is(err, ErrPanicked) {
		t.Errorf("err = %v, want ErrPanicked in chain", err)
	}
	if Classify(context.Background(), err) != ClassFatal {
		t.Errorf("classified %v", Classify(context.Background(), err))
	}
	if p.Cache().Len() != 0 {
		t.Errorf("failed job left %d cache entries", p.Cache().Len())
	}
	if got := in.Panics.Load(); got != 1 {
		t.Errorf("panics injected = %d, want 1 (one attempt)", got)
	}
	if got := p.Metrics().JobsFailed.Load(); got != 1 {
		t.Errorf("failed = %d, want exactly one report", got)
	}
}

// TestWatchdogReclaimsWedgedJob: a Stall fault sleeps through
// cancellation; the watchdog must reclaim the slot with a typed,
// terminal error instead of wedging the worker forever, and the wedged
// job is not run again.
func TestWatchdogReclaimsWedgedJob(t *testing.T) {
	in := faultinject.New(faultinject.Plan{
		Seed: 1, StallRate: 1, Latency: 2 * time.Second, Match: "pool/",
	})
	p := NewPool(Options{
		Workers:       1,
		JobTimeout:    20 * time.Millisecond,
		WatchdogGrace: 30 * time.Millisecond,
		Injector:      in,
	})
	start := time.Now()
	_, err := p.Do(context.Background(), smallEval(1))
	if err == nil || !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want ErrWatchdog", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("watchdog took %v to reclaim a wedged job", elapsed)
	}
	if got := p.Metrics().JobsAbandoned.Load(); got != 1 {
		t.Errorf("abandoned = %d", got)
	}
	// The wedged job ran once and was not requeued.
	if got := in.Stalls.Load(); got != 1 {
		t.Errorf("stalls = %d, want 1 (the job's one attempt)", got)
	}
	m := p.Metrics()
	if started, failed := m.JobsStarted.Load(), m.JobsFailed.Load(); started != 1 || failed != 1 {
		t.Errorf("started %d, failed %d; want one run, one failure", started, failed)
	}
	// The worker slot was reclaimed: the pool still runs jobs.
	if _, err := p.Do(context.Background(), smallEval(99)); err == nil {
		t.Log("note: follow-up job also stalled (same injector), as planned")
	}
}

// TestKillAndRestartRecovery is the crash-safety acceptance test: a
// batch is interrupted by injected process kills (jobs journaled as
// accepted, no terminal record — the crash signature), a second pool
// replays the journal over the same CAS store, and the recovered results
// are byte-identical to an uninterrupted run with completed work served
// from the warmed cache and only the killed jobs re-executed.
func TestKillAndRestartRecovery(t *testing.T) {
	specs := chaosBatch()
	ref := serialReference(t, specs)

	for _, seed := range chaosSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			storeDir := t.TempDir()
			j1, err := OpenJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			s1 := openTestStore(t, storeDir)
			in := faultinject.New(faultinject.Plan{
				Seed: seed, KillRate: 0.5, Match: "pool/",
			})
			p1 := NewPool(Options{
				Workers: 2,
				Journal: j1, Store: s1, Injector: in,
			})
			killed := 0
			for _, s := range specs {
				if _, err := p1.Do(context.Background(), s); err != nil {
					if !errors.Is(err, ErrKilled) {
						t.Fatalf("unexpected failure: %v", err)
					}
					killed++
				}
			}
			if killed == 0 || killed == len(specs) {
				t.Fatalf("kill schedule degenerate: %d/%d killed (adjust seed matrix)",
					killed, len(specs))
			}
			s1.Close()
			j1.Close() // the "process" dies

			// Restart: fresh journal handle, store and pool, replay.
			j2, err := OpenJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			s2 := openTestStore(t, storeDir)
			defer s2.Close()
			p2 := NewPool(Options{Workers: 2, Journal: j2, Store: s2})
			stats, err := RecoverFromJournal(context.Background(), p2, dir)
			if err != nil {
				t.Fatal(err)
			}
			if stats.WarmedStore != len(specs)-killed {
				t.Errorf("warmed = %d, want %d", stats.WarmedStore, len(specs)-killed)
			}
			if stats.Resubmitted != killed || stats.FailedReplays != 0 {
				t.Errorf("resubmitted = %d (failed %d), want %d",
					stats.Resubmitted, stats.FailedReplays, killed)
			}
			// Only the killed jobs were re-executed; completed work came
			// back through the cache with no duplicate side effects.
			if got := p2.Metrics().JobsStarted.Load(); got != int64(killed) {
				t.Errorf("restart ran %d jobs, want %d", got, killed)
			}
			if got := p2.Metrics().JournalReplayedDone.Load(); got != int64(len(specs)-killed) {
				t.Errorf("replayed_done = %d", got)
			}

			// Every spec now resolves byte-identical to the
			// uninterrupted reference, entirely from the recovered state.
			for i, s := range specs {
				a, err := p2.Serve(context.Background(), s)
				if err != nil {
					t.Fatalf("spec %d after recovery: %v", i, err)
				}
				if a.By == ServedCompute {
					t.Errorf("spec %d recomputed after recovery", i)
				}
				if !bytes.Equal(a.Body, ref[a.ID]) {
					t.Errorf("spec %d (%s): recovered result differs from uninterrupted run",
						i, s.Kind)
				}
			}

			// The journal was compacted to the surviving state: replay
			// again shows everything completed, nothing pending.
			rep, err := ReplayJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Pending) != 0 || len(rep.StoredIDs) != len(specs) {
				t.Errorf("post-recovery journal: %d pending, %d completed",
					len(rep.Pending), len(rep.StoredIDs))
			}
		})
	}
}

// TestKillAndRestartJournalOnly: without a store the journal is an
// intent log and nothing more. A batch is interrupted by injected kills,
// a second pool replays the journal, and recovery re-runs exactly the
// killed jobs; the jobs that had finished are not warmed (no result body
// was ever durable) and recompute on demand. Every answer is
// byte-identical to the uninterrupted reference either way.
func TestKillAndRestartJournalOnly(t *testing.T) {
	specs := chaosBatch()
	ref := serialReference(t, specs)

	dir := t.TempDir()
	j1, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	in := faultinject.New(faultinject.Plan{Seed: 1, KillRate: 0.5, Match: "pool/"})
	p1 := NewPool(Options{Workers: 2, Journal: j1, Injector: in})
	killed := map[string]bool{}
	for _, s := range specs {
		if _, err := p1.Do(context.Background(), s); err != nil {
			if !errors.Is(err, ErrKilled) {
				t.Fatalf("unexpected failure: %v", err)
			}
			killed[s.Hash()] = true
		}
	}
	if len(killed) == 0 || len(killed) == len(specs) {
		t.Fatalf("kill schedule degenerate: %d/%d killed", len(killed), len(specs))
	}
	j1.Close() // the "process" dies

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	p2 := NewPool(Options{Workers: 2, Journal: j2})
	stats, err := RecoverFromJournal(context.Background(), p2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resubmitted != len(killed) || stats.FailedReplays != 0 || stats.WarmedStore != 0 {
		t.Errorf("recovery: resubmitted %d (failed %d), warmed %d; want %d, 0, 0",
			stats.Resubmitted, stats.FailedReplays, stats.WarmedStore, len(killed))
	}
	if got := p2.Metrics().JobsStarted.Load(); got != int64(len(killed)) {
		t.Errorf("restart ran %d jobs, want the %d killed", got, len(killed))
	}
	// Nothing survives compaction: no pending work, and no pointer, since
	// without a store a pointer would point at nothing.
	rep, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pending)+len(rep.StoredIDs)+rep.Failed != 0 {
		t.Errorf("post-recovery journal: %d pending, %d stored, %d failed; want empty",
			len(rep.Pending), len(rep.StoredIDs), rep.Failed)
	}

	// The killed jobs re-ran at boot and serve from RAM; the rest
	// recompute now. Both are byte-identical to the reference.
	for i, s := range specs {
		a, err := p2.Serve(context.Background(), s)
		if err != nil {
			t.Fatalf("spec %d after recovery: %v", i, err)
		}
		want := ServedCompute
		if killed[s.Hash()] {
			want = ServedRAM
		}
		if a.By != want {
			t.Errorf("spec %d served by %s, want %s", i, a.By, want)
		}
		if !bytes.Equal(a.Body, ref[a.ID]) {
			t.Errorf("spec %d (%s): result differs from uninterrupted run", i, s.Kind)
		}
	}
	if got := p2.Metrics().JobsStarted.Load(); got != int64(len(specs)) {
		t.Errorf("jobs started = %d, want %d (each spec computed once after the crash)", got, len(specs))
	}
}
