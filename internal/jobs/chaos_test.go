package jobs

// The chaos suite: deterministic fault injection at every pool and
// flow-stage seam, proving the acceptance properties of the failure
// layer — no job lost or double-reported, the cache never holds a
// partial result, and ladder/sweep outputs stay byte-identical to the
// serial, fault-free reference. Every test uses a fixed seed matrix
// (chaosSeeds), and the injector's fault schedule is a pure function of
// (seed, job, attempt, stage), so these tests are reproducible and
// non-flaky by construction: `make chaos` runs them under -race.

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
// canonical envelope minus run-dependent fields (timing, attempts,
// cache/service annotations).
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

// TestChaosExactUnderFaults is the acceptance test for the fault layer:
// with errors, panics, latency spikes, and cancellation storms injected
// at every pool and stage seam, every job in a concurrent mixed batch
// must still complete (via retries) with output byte-identical to the
// serial fault-free reference, with no lost or double-reported job and
// no partial cache entry.
func TestChaosExactUnderFaults(t *testing.T) {
	specs := chaosBatch()
	ref := serialReference(t, specs)

	for _, seed := range chaosSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			in := faultinject.New(faultinject.Plan{
				Seed:        seed,
				ErrorRate:   0.010,
				PanicRate:   0.006,
				LatencyRate: 0.010,
				CancelRate:  0.006,
				Latency:     2 * time.Millisecond,
			})
			p := NewPool(Options{
				Workers:          4,
				Parallelism:      2,
				MaxAttempts:      8,
				RetryBase:        time.Millisecond,
				RetryMax:         4 * time.Millisecond,
				BreakerThreshold: -1, // breaker behaviour has its own tests
				Injector:         in,
			})

			var wg sync.WaitGroup
			answers := make([]Answer, len(specs))
			errs := make([]error, len(specs))
			for i, s := range specs {
				wg.Add(1)
				go func(i int, s Spec) {
					defer wg.Done()
					answers[i], errs[i] = p.Serve(context.Background(), s)
				}(i, s)
			}
			wg.Wait()

			for i, err := range errs {
				if err != nil {
					t.Fatalf("spec %d (%s) failed under chaos: %v", i, specs[i].Kind, err)
				}
				got := answers[i].Body
				want, ok := ref[answers[i].ID]
				if !ok {
					t.Fatalf("spec %d returned unknown id %s", i, answers[i].ID)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("spec %d (%s): chaos result differs from serial reference\n got: %s\nwant: %s",
						i, specs[i].Kind, got, want)
				}
			}

			m := p.Metrics()
			// No lost or double-reported jobs: every spec maps to
			// exactly one completion, whatever the retry count was.
			if got := m.JobsCompleted.Load(); got != int64(len(specs)) {
				t.Errorf("completed = %d, want %d", got, len(specs))
			}
			if got := m.JobsFailed.Load(); got != 0 {
				t.Errorf("failed = %d, want 0", got)
			}
			// Every injected fault must be accounted for as a retry —
			// attempts minus retries is one run per job.
			totalAttempts := int64(0)
			for _, a := range answers {
				totalAttempts += int64(a.Attempts)
			}
			if totalAttempts != int64(len(specs))+m.JobsRetried.Load() {
				t.Errorf("attempts %d != jobs %d + retries %d",
					totalAttempts, len(specs), m.JobsRetried.Load())
			}
			// The cache holds exactly the completed results, never a
			// partial one: every entry round-trips to the reference.
			if p.Cache().Len() != len(specs) {
				t.Errorf("cache entries = %d, want %d", p.Cache().Len(), len(specs))
			}
			for id, want := range ref {
				st, ok := p.Cache().Get(id)
				if !ok {
					t.Errorf("cache missing %s", id[:12])
					continue
				}
				if !bytes.Equal(st.Body, want) {
					t.Errorf("cache entry %s differs from reference", id[:12])
				}
			}
		})
	}
}

// TestChaosScheduleDeterministic: the same seed injects the same faults
// regardless of run — the property that makes the suite non-flaky.
func TestChaosScheduleDeterministic(t *testing.T) {
	specs := chaosBatch()
	counts := func() (panics, retries, injected int64) {
		in := faultinject.New(faultinject.Plan{
			Seed:      7,
			ErrorRate: 0.08,
			PanicRate: 0.04,
		})
		p := NewPool(Options{
			Workers: 1, Parallelism: 1, MaxAttempts: 8,
			RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond, RetryJitter: -1,
			BreakerThreshold: -1,
			Injector:         in,
		})
		for _, s := range specs {
			if _, err := p.Do(context.Background(), s); err != nil {
				t.Fatalf("%s: %v", s.Kind, err)
			}
		}
		return p.Metrics().JobsPanicked.Load(), p.Metrics().JobsRetried.Load(),
			in.Errors.Load() + in.Panics.Load()
	}
	p1, r1, i1 := counts()
	p2, r2, i2 := counts()
	if p1 != p2 || r1 != r2 || i1 != i2 {
		t.Errorf("schedules diverged: (%d,%d,%d) vs (%d,%d,%d)", p1, r1, i1, p2, r2, i2)
	}
	if i1 == 0 {
		t.Error("plan injected nothing; rates too low to test anything")
	}
}

// TestChaosFailedJobsNeverCached: when retries are exhausted the job
// fails with a typed error and the cache must hold nothing for it.
func TestChaosFailedJobsNeverCached(t *testing.T) {
	in := faultinject.New(faultinject.Plan{Seed: 1, PanicRate: 1})
	p := NewPool(Options{
		Workers: 2, MaxAttempts: 2,
		RetryBase: time.Millisecond, RetryMax: time.Millisecond,
		BreakerThreshold: -1,
		Injector:         in,
	})
	_, err := p.Do(context.Background(), smallEval(1))
	if err == nil {
		t.Fatal("job with 100% panic injection succeeded")
	}
	if !errors.Is(err, ErrPanicked) {
		t.Errorf("err = %v, want ErrPanicked in chain", err)
	}
	if Classify(context.Background(), err) != ClassTransient {
		t.Errorf("classified %v", Classify(context.Background(), err))
	}
	if p.Cache().Len() != 0 {
		t.Errorf("failed job left %d cache entries", p.Cache().Len())
	}
	if got := p.Metrics().JobsRetried.Load(); got != 1 {
		t.Errorf("retries = %d, want 1 (MaxAttempts 2)", got)
	}
	if got := p.Metrics().JobsFailed.Load(); got != 1 {
		t.Errorf("failed = %d, want exactly one report", got)
	}
}

// TestWatchdogReclaimsWedgedJob: a Stall fault sleeps through
// cancellation; the watchdog must reclaim the slot with a typed,
// transient error instead of wedging the worker forever.
func TestWatchdogReclaimsWedgedJob(t *testing.T) {
	in := faultinject.New(faultinject.Plan{
		Seed: 1, StallRate: 1, Latency: 2 * time.Second, Match: "pool/",
	})
	p := NewPool(Options{
		Workers: 1, MaxAttempts: 1,
		JobTimeout:       20 * time.Millisecond,
		WatchdogGrace:    30 * time.Millisecond,
		BreakerThreshold: -1,
		Injector:         in,
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
	// The worker slot was reclaimed: the pool still runs jobs.
	if _, err := p.Do(context.Background(), smallEval(99)); err == nil {
		t.Log("note: follow-up job also stalled (same injector), as planned")
	}
}

// TestWatchdogErrorRequeues: with retry budget, a watchdog kill requeues
// the attempt and a clean second attempt succeeds.
func TestWatchdogErrorRequeues(t *testing.T) {
	var calls int
	var mu sync.Mutex
	p := NewPool(Options{
		Workers: 1, MaxAttempts: 2,
		JobTimeout:    20 * time.Millisecond,
		WatchdogGrace: 20 * time.Millisecond,
		RetryBase:     time.Millisecond, RetryMax: time.Millisecond,
		BreakerThreshold: -1,
	})
	p.runFn = func(ctx context.Context, c Spec, _ int) (*Result, error) {
		mu.Lock()
		calls++
		wedge := calls == 1
		mu.Unlock()
		if wedge {
			time.Sleep(500 * time.Millisecond) // ignores ctx: wedged
		}
		return &Result{ID: c.Hash(), Kind: c.Kind, Spec: c}, nil
	}
	a, err := p.Serve(context.Background(), smallEval(1))
	if err != nil {
		t.Fatalf("requeued job failed: %v", err)
	}
	if a.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", a.Attempts)
	}
	if got := p.Metrics().JobsAbandoned.Load(); got != 1 {
		t.Errorf("abandoned = %d", got)
	}
}

// TestBreakerTripsPerKind: repeated terminal failures of one kind trip
// that kind's breaker; other kinds keep running; after the cooldown a
// successful probe closes it again.
func TestBreakerTripsPerKind(t *testing.T) {
	var failEvaluate sync.Map
	failEvaluate.Store("on", true)
	p := NewPool(Options{
		Workers: 2, MaxAttempts: 1,
		BreakerThreshold: 3,
		BreakerCooldown:  30 * time.Millisecond,
	})
	p.runFn = func(ctx context.Context, c Spec, _ int) (*Result, error) {
		if on, _ := failEvaluate.Load("on"); on.(bool) && c.Kind == KindEvaluate {
			return nil, fmt.Errorf("%w: backend down", ErrTransient)
		}
		return &Result{ID: c.Hash(), Kind: c.Kind, Spec: c}, nil
	}

	// Three terminal failures trip the evaluate breaker.
	for i := 0; i < 3; i++ {
		if _, err := p.Do(context.Background(), smallEval(int64(i))); err == nil {
			t.Fatal("expected failure")
		}
	}
	if open, kinds := p.BreakerOpen(); !open || len(kinds) != 1 || kinds[0] != KindEvaluate {
		t.Fatalf("breaker open = %v %v, want evaluate open", open, kinds)
	}
	if got := p.Metrics().BreakerTrips.Load(); got != 1 {
		t.Errorf("trips = %d", got)
	}

	// While open: evaluate is rejected without running, other kinds pass.
	_, err := p.Do(context.Background(), smallEval(50))
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker returned %v", err)
	}
	if got := p.Metrics().BreakerShortCircuits.Load(); got != 1 {
		t.Errorf("short circuits = %d", got)
	}
	if _, err := p.Do(context.Background(), Spec{
		Kind: KindLadder, Design: DesignSpec{Name: "datapath", Width: 8, Depth: 2},
	}); err != nil {
		t.Fatalf("ladder took evaluate's breaker: %v", err)
	}

	// After the cooldown the half-open probe runs; with the backend
	// healthy again it closes the breaker for everyone.
	failEvaluate.Store("on", false)
	time.Sleep(40 * time.Millisecond)
	if _, err := p.Do(context.Background(), smallEval(60)); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if open, _ := p.BreakerOpen(); open {
		t.Error("breaker still open after successful probe")
	}
	if _, err := p.Do(context.Background(), smallEval(61)); err != nil {
		t.Fatalf("breaker did not close: %v", err)
	}
}

// TestKillAndRestartRecovery is the crash-safety acceptance test: a
// batch is interrupted by injected process kills (jobs journaled as
// accepted, no terminal record — the crash signature), a second pool
// replays the journal, and the recovered results are byte-identical to
// an uninterrupted run with completed work served from the warmed cache
// and only the killed jobs re-executed.
func TestKillAndRestartRecovery(t *testing.T) {
	specs := chaosBatch()
	ref := serialReference(t, specs)

	for _, seed := range chaosSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			j1, err := OpenJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			in := faultinject.New(faultinject.Plan{
				Seed: seed, KillRate: 0.5, Match: "pool/",
			})
			p1 := NewPool(Options{
				Workers: 2, MaxAttempts: 1, BreakerThreshold: -1,
				Journal: j1, Injector: in,
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
			j1.Close() // the "process" dies

			// Restart: fresh journal handle, fresh pool, replay.
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
			if stats.WarmedCache != len(specs)-killed {
				t.Errorf("warmed = %d, want %d", stats.WarmedCache, len(specs)-killed)
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
			if len(rep.Pending) != 0 || len(rep.Completed) != len(specs) {
				t.Errorf("post-recovery journal: %d pending, %d completed",
					len(rep.Pending), len(rep.Completed))
			}
		})
	}
}
