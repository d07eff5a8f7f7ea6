package jobs

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestPoolStressMixedJobs drives >= 32 concurrent mixed evaluate / ladder
// / sweep jobs through one pool. Run under -race this is the proof that
// the evaluation flow (internal/core, internal/cell, and everything
// below) shares no mutable state between concurrent jobs. Specs repeat on
// purpose so cache hits and in-flight joins race against fresh runs.
func TestPoolStressMixedJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	p := NewPool(Options{Workers: 8, Parallelism: 2, CacheEntries: 64})

	specs := make([]Spec, 0, 48)
	for i := 0; i < 48; i++ {
		switch i % 6 {
		case 0, 1:
			specs = append(specs, Spec{
				Kind:        KindEvaluate,
				Design:      DesignSpec{Name: "datapath", Width: 8, Depth: 2},
				Methodology: MethSpec{Base: "typical"},
				Seed:        int64(i % 4),
			})
		case 2:
			specs = append(specs, Spec{
				Kind:        KindEvaluate,
				Design:      DesignSpec{Name: "cla", Width: 16},
				Methodology: MethSpec{Base: "custom"},
				Seed:        int64(i % 3),
			})
		case 3:
			specs = append(specs, Spec{
				Kind:   KindLadder,
				Design: DesignSpec{Name: "datapath", Width: 8, Depth: 2},
				Seed:   int64(i % 2),
			})
		case 4:
			specs = append(specs, Spec{
				Kind:      KindSweep,
				Design:    DesignSpec{Name: "datapath", Width: 8, Depth: 2},
				MaxStages: 4,
				Workload:  "integer",
				Seed:      int64(i % 2),
			})
		case 5:
			specs = append(specs, Spec{
				Kind:      KindSweep,
				Design:    DesignSpec{Name: "rca", Width: 16},
				MaxStages: 3,
				Workload:  "dsp",
				Seed:      1,
			})
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	results := make([]*Result, len(specs))
	for i, s := range specs {
		wg.Add(1)
		go func(i int, s Spec) {
			defer wg.Done()
			results[i], errs[i] = p.Do(context.Background(), s)
		}(i, s)
	}
	wg.Wait()

	byID := make(map[string]*Result)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d (%s %s): %v", i, specs[i].Kind, specs[i].Design.Name, err)
		}
		r := results[i]
		if r == nil {
			t.Fatalf("job %d returned nil result", i)
		}
		switch r.Kind {
		case KindEvaluate:
			if r.Evaluation == nil || r.Evaluation.ShippedMHz <= 0 {
				t.Fatalf("job %d: bad evaluation %+v", i, r.Evaluation)
			}
		case KindLadder:
			if r.Ladder == nil || len(r.Ladder.Steps) != 5 {
				t.Fatalf("job %d: bad ladder", i)
			}
		case KindSweep:
			if len(r.Sweep) == 0 {
				t.Fatalf("job %d: empty sweep", i)
			}
		}
		// Identical specs must agree exactly however they were served
		// (fresh run, cache hit, or in-flight join).
		if prev, ok := byID[r.ID]; ok {
			if fmt.Sprintf("%+v", summarize(prev)) != fmt.Sprintf("%+v", summarize(r)) {
				t.Fatalf("job %d: divergent result for id %s", i, r.ID[:12])
			}
		} else {
			byID[r.ID] = r
		}
	}

	m := p.Metrics()
	started := m.JobsStarted.Load()
	if started <= 0 || started > int64(len(byID)) {
		t.Errorf("jobs started = %d, distinct specs = %d", started, len(byID))
	}
	if m.JobsFailed.Load() != 0 || m.JobsPanicked.Load() != 0 {
		t.Errorf("failures = %d panics = %d", m.JobsFailed.Load(), m.JobsPanicked.Load())
	}
	if m.CacheHits.Load()+m.CacheMisses.Load() != int64(len(specs)) {
		t.Errorf("cache traffic %d+%d != %d submissions",
			m.CacheHits.Load(), m.CacheMisses.Load(), len(specs))
	}
}

// summarize projects the numeric payload of a result for equality checks.
func summarize(r *Result) []float64 {
	var out []float64
	if r.Evaluation != nil {
		out = append(out, r.Evaluation.ShippedMHz)
	}
	if r.Ladder != nil {
		out = append(out, r.Ladder.Baseline.ShippedMHz)
		for _, s := range r.Ladder.Steps {
			out = append(out, s.Mult, s.Eval.ShippedMHz)
		}
	}
	for _, pt := range r.Sweep {
		out = append(out, float64(pt.Stages), pt.Eval.ShippedMHz, pt.ThroughputRel)
	}
	return out
}
