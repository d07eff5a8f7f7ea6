package jobs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// smallEval is a cheap evaluate spec for pool plumbing tests.
func smallEval(seed int64) Spec {
	return Spec{
		Kind:        KindEvaluate,
		Design:      DesignSpec{Name: "datapath", Width: 8, Depth: 2},
		Methodology: MethSpec{Base: "typical"},
		Seed:        seed,
	}
}

func TestPoolCachesIdenticalSpecs(t *testing.T) {
	p := NewPool(Options{Workers: 2})
	ctx := context.Background()

	a1, err := p.Serve(ctx, smallEval(1))
	if err != nil {
		t.Fatal(err)
	}
	if a1.By != ServedCompute || a1.Attempts != 1 {
		t.Errorf("first run served by %q after %d attempts, want compute after 1", a1.By, a1.Attempts)
	}
	a2, err := p.Serve(ctx, smallEval(1))
	if err != nil {
		t.Fatal(err)
	}
	if a2.By != ServedRAM || a2.Attempts != 0 {
		t.Errorf("identical rerun served by %q after %d attempts, want a RAM hit", a2.By, a2.Attempts)
	}
	// A hit is the stored entry itself: same bytes, same digest, no copy.
	if a1.Stored != a2.Stored {
		t.Error("cache hit did not return the stored entry")
	}
	if hits := p.Metrics().CacheHits.Load(); hits != 1 {
		t.Errorf("cache hits = %d", hits)
	}
	if done := p.Metrics().JobsCompleted.Load(); done != 1 {
		t.Errorf("jobs completed = %d, want 1", done)
	}
}

func TestPoolDeduplicatesInflight(t *testing.T) {
	p := NewPool(Options{Workers: 4})
	started := make(chan struct{})
	release := make(chan struct{})
	var runs int
	var mu sync.Mutex
	p.runFn = func(ctx context.Context, c Spec, _ int) (*Result, error) {
		mu.Lock()
		runs++
		mu.Unlock()
		close(started)
		<-release
		return &Result{ID: c.Hash(), Kind: c.Kind, Spec: c}, nil
	}

	var wg sync.WaitGroup
	results := make([]*Result, 2)
	errs := make([]error, 2)
	wg.Add(1)
	go func() { defer wg.Done(); results[0], errs[0] = p.Do(context.Background(), smallEval(1)) }()
	<-started
	wg.Add(1)
	go func() { defer wg.Done(); results[1], errs[1] = p.Do(context.Background(), smallEval(1)) }()
	// Give the joiner a moment to attach to the in-flight job.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	for i := range results {
		if errs[i] != nil {
			t.Fatalf("do %d: %v", i, errs[i])
		}
		if results[i] == nil {
			t.Fatalf("do %d returned nil", i)
		}
	}
	if runs != 1 {
		t.Errorf("identical in-flight specs ran %d times, want 1", runs)
	}
}

func TestPoolRecoversPanics(t *testing.T) {
	p := NewPool(Options{Workers: 1, MaxAttempts: 1})
	p.runFn = func(context.Context, Spec, int) (*Result, error) {
		panic("boom")
	}
	_, err := p.Do(context.Background(), smallEval(1))
	if err == nil || !errors.Is(err, ErrPanicked) {
		t.Fatalf("err = %v, want ErrPanicked", err)
	}
	if n := p.Metrics().JobsPanicked.Load(); n != 1 {
		t.Errorf("panics = %d", n)
	}
	// The pool must still work afterwards.
	p.runFn = nil
	if _, err := p.Do(context.Background(), smallEval(2)); err != nil {
		t.Fatalf("pool dead after panic: %v", err)
	}
}

func TestPoolTimesOutSlowJobs(t *testing.T) {
	p := NewPool(Options{Workers: 1, JobTimeout: 30 * time.Millisecond, MaxAttempts: 1})
	p.runFn = func(ctx context.Context, c Spec, _ int) (*Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, err := p.Do(context.Background(), smallEval(1))
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if n := p.Metrics().JobsTimedOut.Load(); n != 1 {
		t.Errorf("timeouts = %d", n)
	}
	j, ok := p.Lookup(smallEval(1).Hash())
	if !ok {
		t.Fatal("timed-out job missing from registry")
	}
	if st := j.Status(); st.State != StateFailed || st.Error == "" {
		t.Errorf("status = %+v", st)
	}
}

func TestPoolRegistryTracksJobs(t *testing.T) {
	p := NewPool(Options{Workers: 2})
	res, err := p.Do(context.Background(), smallEval(1))
	if err != nil {
		t.Fatal(err)
	}
	j, ok := p.Lookup(res.ID)
	if !ok {
		t.Fatal("job not in registry")
	}
	st := j.Status()
	if st.State != StateDone || st.Result == nil || st.Kind != KindEvaluate {
		t.Errorf("status = %+v", st)
	}
	if st.ElapsedMS <= 0 {
		t.Errorf("elapsed = %v", st.ElapsedMS)
	}
}

func TestPoolRejectsInvalidSpec(t *testing.T) {
	p := NewPool(Options{Workers: 1})
	if _, err := p.Do(context.Background(), Spec{Kind: "bogus"}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if n := p.Metrics().JobsStarted.Load(); n != 0 {
		t.Errorf("invalid spec started a job: %d", n)
	}
}

func TestPoolRegistryEviction(t *testing.T) {
	p := NewPool(Options{Workers: 1, RegistryLimit: 2, CacheEntries: -1})
	p.runFn = func(ctx context.Context, c Spec, _ int) (*Result, error) {
		return &Result{ID: c.Hash(), Kind: c.Kind, Spec: c}, nil
	}
	ids := make([]string, 4)
	for i := range ids {
		res, err := p.Do(context.Background(), smallEval(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = res.ID
	}
	if _, ok := p.Lookup(ids[0]); ok {
		t.Error("oldest job should have been evicted")
	}
	if _, ok := p.Lookup(ids[3]); !ok {
		t.Error("newest job missing")
	}
}

// TestAbandonedAttemptsBounded: under a persistent wedge, watchdog
// retries stop once more than Workers abandoned goroutines are parked —
// the job fails fast instead of stacking concurrent evaluations without
// bound — and the AbandonedInFlight gauge drains once the wedge lets go.
func TestAbandonedAttemptsBounded(t *testing.T) {
	block := make(chan struct{})
	p := NewPool(Options{
		Workers: 1, MaxAttempts: 5,
		JobTimeout:    10 * time.Millisecond,
		WatchdogGrace: 10 * time.Millisecond,
		RetryBase:     time.Millisecond, RetryMax: time.Millisecond,
	})
	p.runFn = func(ctx context.Context, c Spec, _ int) (*Result, error) {
		<-block // wedged: ignores cancellation entirely
		return nil, errors.New("wedge released")
	}
	_, err := p.Do(context.Background(), smallEval(1))
	if err == nil || !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want ErrWatchdog", err)
	}
	// Workers=1 admits one parked goroutine: the first abandon retries,
	// the second fails fast rather than parking a third.
	if got := p.Metrics().JobsAbandoned.Load(); got != 2 {
		t.Errorf("abandoned = %d, want 2 (one retry, then fail-fast)", got)
	}
	if got := p.Metrics().JobsRetried.Load(); got != 1 {
		t.Errorf("retried = %d, want 1", got)
	}
	if got := p.AbandonedInFlight(); got != 2 {
		t.Errorf("abandoned in flight = %d, want 2", got)
	}

	// Releasing the wedge lets the parked goroutines finish and drain
	// the gauge back to zero.
	close(block)
	deadline := time.Now().Add(2 * time.Second)
	for p.AbandonedInFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned in flight stuck at %d", p.AbandonedInFlight())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
