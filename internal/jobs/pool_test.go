package jobs

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
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
	if a1.By != ServedCompute {
		t.Errorf("first run served by %q, want compute", a1.By)
	}
	a2, err := p.Serve(ctx, smallEval(1))
	if err != nil {
		t.Fatal(err)
	}
	if a2.By != ServedRAM {
		t.Errorf("identical rerun served by %q, want a RAM hit", a2.By)
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
	p := NewPool(Options{Workers: 1})
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
	p := NewPool(Options{Workers: 1, JobTimeout: 30 * time.Millisecond})
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
	// The pool's own deadline is a fault of this run: transient.
	if class := Classify(context.Background(), err); class != ClassTransient {
		t.Errorf("job timeout classified %s, want transient", class)
	}

	// A caller deadline shorter than JobTimeout means the caller hung
	// up: classified canceled, and not counted as a job timeout.
	p = NewPool(Options{Workers: 1, JobTimeout: time.Second})
	p.runFn = func(ctx context.Context, c Spec, _ int) (*Result, error) {
		<-ctx.Done() // slow but healthy: honours cancellation
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err = p.Do(ctx, smallEval(1))
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if class := Classify(ctx, err); class != ClassCanceled {
		t.Errorf("class = %s, want canceled (the caller's deadline, not the job's)", class)
	}
	if n := p.Metrics().JobsTimedOut.Load(); n != 0 {
		t.Errorf("timeouts = %d, want 0 (the job did not exceed JobTimeout)", n)
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

// TestPoisonSpecDoesNotBlockKind: a spec whose evaluation panics fails
// each submission after exactly one fenced run, however often it is
// submitted, and never blocks healthy specs of the same kind.
func TestPoisonSpecDoesNotBlockKind(t *testing.T) {
	poison := smallEval(13).Hash()
	var poisonRuns atomic.Int64
	p := NewPool(Options{Workers: 1})
	p.runFn = func(ctx context.Context, c Spec, _ int) (*Result, error) {
		if c.Hash() == poison {
			poisonRuns.Add(1)
			panic("poison spec")
		}
		return &Result{ID: c.Hash(), Kind: c.Kind, Spec: c}, nil
	}
	for i := int64(1); i <= 6; i++ {
		_, err := p.Do(context.Background(), smallEval(13))
		if !errors.Is(err, ErrPanicked) {
			t.Fatalf("submission %d: err = %v, want ErrPanicked", i, err)
		}
		if got := poisonRuns.Load(); got != i {
			t.Fatalf("after submission %d the poison spec ran %d times, want %d", i, got, i)
		}
	}
	if _, err := p.Do(context.Background(), smallEval(14)); err != nil {
		t.Fatalf("healthy evaluate after the poison spec: %v", err)
	}
	if got := p.Cache().Len(); got != 1 {
		t.Errorf("cache entries = %d, want 1 (the healthy result only)", got)
	}
}

// TestAbandonedAttemptsBounded: a wedge that ignores cancellation parks
// exactly one goroutine per submission — the job fails with ErrWatchdog
// after its one attempt and is not run again — and the AbandonedInFlight
// gauge drains once the wedge lets go.
func TestAbandonedAttemptsBounded(t *testing.T) {
	block := make(chan struct{})
	var runs atomic.Int64
	p := NewPool(Options{
		Workers:       1,
		JobTimeout:    10 * time.Millisecond,
		WatchdogGrace: 10 * time.Millisecond,
	})
	p.runFn = func(ctx context.Context, c Spec, _ int) (*Result, error) {
		runs.Add(1)
		<-block // wedged: ignores cancellation entirely
		return nil, errors.New("wedge released")
	}
	for i := int64(1); i <= 2; i++ {
		_, err := p.Do(context.Background(), smallEval(i))
		if err == nil || !errors.Is(err, ErrWatchdog) {
			t.Fatalf("submission %d: err = %v, want ErrWatchdog", i, err)
		}
		if got := runs.Load(); got != i {
			t.Errorf("after submission %d the wedge ran %d times, want %d", i, got, i)
		}
	}
	if got := p.Metrics().JobsAbandoned.Load(); got != 2 {
		t.Errorf("abandoned = %d, want 2 (one per submission)", got)
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

// TestJoinerKeepsErrorIdentity: a request that joined an in-flight job
// gets the job's own error value, so errors.Is and Classify see what the
// computing request sees — a joined timeout still maps to 504 and a
// joined panic still matches ErrPanicked.
func TestJoinerKeepsErrorIdentity(t *testing.T) {
	for _, tc := range []struct {
		name   string
		target error
		run    func(ctx context.Context, release <-chan struct{}) (*Result, error)
	}{
		{"timeout", context.DeadlineExceeded, func(ctx context.Context, _ <-chan struct{}) (*Result, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}},
		{"panic", ErrPanicked, func(_ context.Context, release <-chan struct{}) (*Result, error) {
			<-release
			panic("boom")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool(Options{Workers: 2, JobTimeout: 200 * time.Millisecond})
			started, release := make(chan struct{}), make(chan struct{})
			var runs atomic.Int32
			p.runFn = func(ctx context.Context, _ Spec, _ int) (*Result, error) {
				if runs.Add(1) == 1 {
					close(started)
				}
				return tc.run(ctx, release)
			}
			errs := make([]error, 2)
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); _, errs[0] = p.Do(context.Background(), smallEval(1)) }()
			<-started
			go func() { defer wg.Done(); _, errs[1] = p.Do(context.Background(), smallEval(1)) }()
			time.Sleep(20 * time.Millisecond) // let the second request join
			close(release)
			wg.Wait()

			if n := runs.Load(); n != 1 {
				t.Fatalf("job ran %d times; the second request did not join", n)
			}
			for i, err := range errs {
				if !errors.Is(err, tc.target) {
					t.Errorf("request %d: err = %v, want errors.Is %v", i, err, tc.target)
				}
			}
			if a, b := Classify(context.Background(), errs[0]), Classify(context.Background(), errs[1]); a != b {
				t.Errorf("computing request classified %s, joiner %s", a, b)
			}
		})
	}
}
