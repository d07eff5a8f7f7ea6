package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/core"
)

// ErrSpec marks failures caused by the job specification itself (as
// opposed to the flow computation), so callers — the HTTP layer in
// particular — can report them as client errors.
var ErrSpec = errors.New("invalid job spec")

// RunService executes one spec through a single-shot pool, so CLI
// callers get the same timeout, watchdog, and panic-fence behaviour as
// the gapd daemon. It returns the result's stored form:
// Body is byte-for-byte the HTTP body gapd serves for the same spec,
// which is what a CLI's -json prints.
func RunService(ctx context.Context, s Spec, parallelism int) (*Stored, error) {
	p := NewPool(Options{Workers: 1, Parallelism: parallelism})
	a, err := p.Serve(ctx, s)
	if err != nil {
		return nil, err
	}
	return a.Stored, nil
}

// Run executes one canonical spec and fills the matching payload.
// parallelism bounds the concurrent flow evaluations inside ladder and
// sweep jobs (1 = serial; the results are identical either way, because
// both paths share core's rung table and assembly arithmetic).
func Run(ctx context.Context, s Spec, parallelism int) (*Result, error) {
	// Canon, BuildDesign, Resolve, and workloadCPI wrap ErrSpec at the
	// validation site, so their errors arrive pre-classified.
	c, err := s.Canon()
	if err != nil {
		return nil, err
	}
	d, err := c.Design.BuildDesign()
	if err != nil {
		return nil, err
	}
	res := &Result{ID: c.Hash(), Kind: c.Kind, Spec: c}
	switch c.Kind {
	case KindEvaluate:
		m, err := c.Methodology.Resolve(c.Seed)
		if err != nil {
			return nil, err
		}
		ev, err := core.EvaluateCtx(ctx, d, m)
		if err != nil {
			return nil, err
		}
		res.Evaluation = &ev
	case KindLadder:
		l, err := ParallelLadder(ctx, d, c.Seed, parallelism)
		if err != nil {
			return nil, err
		}
		res.Ladder = &l
	case KindSweep:
		m, err := c.Methodology.Resolve(c.Seed)
		if err != nil {
			return nil, err
		}
		cpi, err := workloadCPI(c.Workload)
		if err != nil {
			return nil, err
		}
		points, err := ParallelSweep(ctx, d, m, c.MaxStages, cpi, parallelism)
		if err != nil {
			return nil, err
		}
		res.Sweep = points
	default:
		return nil, fmt.Errorf("%w: kind %q is not executable", ErrSpec, c.Kind)
	}
	return res, nil
}

// ParallelLadder measures the section 3 factor ladder with the rung
// evaluations running concurrently. Each rung's cumulative methodology
// comes from core.LadderMethodologies and the multipliers from
// core.AssembleLadder — the same table and arithmetic as the serial
// core.FactorLadder — so the result is rung-for-rung identical; only the
// wall-clock differs.
func ParallelLadder(ctx context.Context, d core.Design, seed int64, workers int) (core.Ladder, error) {
	baseM, rungMs := core.LadderMethodologies(seed)
	all := make([]core.Methodology, 0, 1+len(rungMs))
	all = append(all, baseM)
	all = append(all, rungMs...)
	evals := make([]core.Evaluation, len(all))
	err := forEachLimited(ctx, workers, len(all), func(ctx context.Context, i int) error {
		ev, err := core.EvaluateCtx(ctx, d, all[i])
		if err != nil {
			if i == 0 {
				return fmt.Errorf("jobs: ladder baseline: %w", err)
			}
			return fmt.Errorf("jobs: ladder rung %s: %w", core.Rungs()[i-1].Name, err)
		}
		evals[i] = ev
		return nil
	})
	if err != nil {
		return core.Ladder{}, err
	}
	return core.AssembleLadder(d.Name, evals[0], evals[1:]), nil
}

// ParallelSweep evaluates pipeline depths 1..maxStages concurrently and
// scores them with core.ScoreSweep, matching core.DepthSweep exactly.
func ParallelSweep(ctx context.Context, d core.Design, m core.Methodology, maxStages int, cpi func(stages int) float64, workers int) ([]core.DepthPoint, error) {
	if maxStages < 1 {
		return nil, fmt.Errorf("%w: sweep needs maxStages >= 1", ErrSpec)
	}
	evals := make([]core.Evaluation, maxStages)
	err := forEachLimited(ctx, workers, maxStages, func(ctx context.Context, i int) error {
		mm := m
		mm.Stages = i + 1
		ev, err := core.EvaluateCtx(ctx, d, mm)
		if err != nil {
			return fmt.Errorf("jobs: sweep at %d stages: %w", i+1, err)
		}
		evals[i] = ev
		return nil
	})
	if err != nil {
		return nil, err
	}
	return core.ScoreSweep(evals, cpi), nil
}

// forEachLimited runs fn(ctx, i) for i in [0, n) on at most `workers`
// goroutines. The first failure cancels the remaining work. The reported
// error prefers a real failure over the cancellations it caused.
func forEachLimited(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Each unit runs behind its own panic fence: a panic in one rung or
	// sweep-point evaluation (a bug, or injected chaos) fails that unit
	// with a typed error (ErrPanicked) instead of crashing the process —
	// the inner goroutines here are outside the pool's own recover.
	runUnit := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%w: %v\n%s", ErrPanicked, r, debug.Stack())
			}
		}()
		return fn(ctx, i)
	}

	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				if errs[i] = runUnit(i); errs[i] != nil {
					cancel()
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	var firstCancel error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if !errors.Is(e, context.Canceled) {
			return e
		}
		if firstCancel == nil {
			firstCancel = e
		}
	}
	if firstCancel != nil {
		return firstCancel
	}
	return ctx.Err()
}
