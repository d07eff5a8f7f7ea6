// Package faultinject is a deterministic, seedable fault injector for
// the gapd evaluation stack. It hooks the stage seams of
// core.EvaluateCtx (via core.WithStageHook) and the worker-pool seam in
// internal/jobs, and turns a fixed seed into a reproducible schedule of
// injected failures: typed error returns, panics, artificial latency
// (cooperative and non-cooperative), context-cancellation storms, and
// simulated process kills. Each kind drives one path of the job layer:
// errors, panics and cancellations give a terminal failure that is never
// cached, stalls are non-cooperative slow stages the watchdog reclaims,
// latency holds workers busy for the overload and drain tests, and kills
// trigger journal replay.
//
// Determinism is the point: a fault decision is a pure function of
// (plan seed, site key), where the site key names a (job, stage) pair.
// Two runs of the same chaos test with the same seed see the same faults
// at the same places regardless of goroutine interleaving, so the suite
// is reproducible and non-flaky by construction.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync/atomic"
	"time"
)

// ErrInjected marks every error the injector fabricates. The job layer
// fails the job terminally and labels it transient (a fault of that run,
// not of the spec), and never caches it.
var ErrInjected = errors.New("faultinject: injected fault")

// PanicValue is the value injected panics carry, so recover sites (and
// chaos tests) can tell an injected panic from a genuine bug.
type PanicValue struct {
	// Key is the site key that drew the panic.
	Key string
}

func (p PanicValue) String() string { return "faultinject: injected panic at " + p.Key }

// Kind enumerates the faults the injector can produce at a site.
type Kind int

// Fault kinds, in drawing order (see Decide).
const (
	// None: the site proceeds normally.
	None Kind = iota
	// Error: the site returns an error wrapping ErrInjected.
	Error
	// Panic: the site panics with a PanicValue.
	Panic
	// Latency: the site sleeps Plan.Latency, honouring context
	// cancellation (a slow dependency, not a wedged one).
	Latency
	// Stall: the site sleeps Plan.Latency ignoring the context — a
	// non-cooperative slow stage; the pool watchdog reclaims its slot.
	Stall
	// Cancel: the site reports context.Canceled as if a cancellation
	// storm had swept the job mid-flight while its caller still waits.
	// The job fails terminally; only the caller hanging up is labelled
	// canceled.
	Cancel
	// Kill: the pool abandons the job without writing a terminal
	// journal record, exactly as if the process had died between
	// journal accept and done. Only the pool seam honours Kill; stage
	// seams treat it as None.
	Kill
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Latency:
		return "latency"
	case Stall:
		return "stall"
	case Cancel:
		return "cancel"
	case Kill:
		return "kill"
	}
	return fmt.Sprintf("faultinject.Kind(%d)", int(k))
}

// Plan fixes the injector's behaviour. Rates are probabilities in
// [0,1], drawn independently per site key in the declared order; they
// are effectively cumulative, so their sum should stay <= 1.
type Plan struct {
	// Seed drives every fault decision. The same seed and site keys
	// reproduce the same fault schedule.
	Seed int64

	ErrorRate   float64
	PanicRate   float64
	LatencyRate float64
	StallRate   float64
	CancelRate  float64
	KillRate    float64

	// Latency is the injected sleep for Latency and Stall faults
	// (default 10ms).
	Latency time.Duration

	// Match restricts injection to site keys containing the substring
	// (e.g. a job kind, a stage name, or a job-hash prefix). Empty
	// matches every site.
	Match string
}

// Injector draws faults deterministically from a Plan and counts what
// it injected. Safe for concurrent use.
type Injector struct {
	plan Plan

	Errors    atomic.Int64
	Panics    atomic.Int64
	Latencies atomic.Int64
	Stalls    atomic.Int64
	Cancels   atomic.Int64
	Kills     atomic.Int64
}

// New builds an injector for the plan.
func New(plan Plan) *Injector {
	if plan.Latency <= 0 {
		plan.Latency = 10 * time.Millisecond
	}
	return &Injector{plan: plan}
}

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

// Decide maps a site key to the fault that site draws. Pure: the same
// key always draws the same fault under the same plan.
func (in *Injector) Decide(key string) Kind {
	if in == nil {
		return None
	}
	if in.plan.Match != "" && !strings.Contains(key, in.plan.Match) {
		return None
	}
	u := Uniform(in.plan.Seed, key)
	for _, step := range []struct {
		rate float64
		kind Kind
	}{
		{in.plan.ErrorRate, Error},
		{in.plan.PanicRate, Panic},
		{in.plan.LatencyRate, Latency},
		{in.plan.StallRate, Stall},
		{in.plan.CancelRate, Cancel},
		{in.plan.KillRate, Kill},
	} {
		if u < step.rate {
			return step.kind
		}
		u -= step.rate
	}
	return None
}

// Uniform hashes (seed, key) into [0,1): the seeded site-key draw every
// fault decision rests on, here and in internal/netfault. FNV-1a over the
// seed's little-endian bytes and the key, then a splitmix64 finalizer —
// FNV alone is too regular over near-identical keys — before taking 53
// bits for the double.
func Uniform(seed int64, key string) float64 {
	h := fnv.New64a()
	var b [8]byte
	s := uint64(seed)
	for i := range b {
		b[i] = byte(s >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// Fire applies the site's fault: it may sleep, return an error wrapping
// ErrInjected or context.Canceled, or panic with a PanicValue. Kill is
// pool-only and reported as None here; use Decide at the pool seam.
func (in *Injector) Fire(ctx context.Context, key string) error {
	switch in.Decide(key) {
	case Error:
		in.Errors.Add(1)
		return fmt.Errorf("%w at %s", ErrInjected, key)
	case Panic:
		in.Panics.Add(1)
		panic(PanicValue{Key: key})
	case Latency:
		in.Latencies.Add(1)
		t := time.NewTimer(in.plan.Latency)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	case Stall:
		in.Stalls.Add(1)
		time.Sleep(in.plan.Latency) // deliberately ignores ctx: a non-cooperative stage
	case Cancel:
		in.Cancels.Add(1)
		return fmt.Errorf("injected cancellation storm at %s: %w", key, context.Canceled)
	}
	return nil
}

// StageHook adapts the injector to core.WithStageHook: the site key is
// the attempt key carried in ctx (see WithAttemptKey) joined with the
// stage name, so each (job, stage) is an independent, deterministic
// fault site.
func (in *Injector) StageHook() func(ctx context.Context, stage string) error {
	return func(ctx context.Context, stage string) error {
		return in.Fire(ctx, AttemptKey(ctx)+"/"+stage)
	}
}

type attemptKeyKey struct{}

// WithAttemptKey stamps the identity of the job attempt the pool is
// running into ctx, for the stage hook's site keys.
func WithAttemptKey(ctx context.Context, key string) context.Context {
	return context.WithValue(ctx, attemptKeyKey{}, key)
}

// AttemptKey extracts the attempt key, or "".
func AttemptKey(ctx context.Context) string {
	key, _ := ctx.Value(attemptKeyKey{}).(string)
	return key
}
