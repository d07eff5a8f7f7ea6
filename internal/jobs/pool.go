package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/faultinject"
)

// State is a job's lifecycle position.
type State string

// Job lifecycle states.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Options configures a Pool.
type Options struct {
	// Workers bounds concurrently running jobs (default GOMAXPROCS).
	Workers int
	// Parallelism bounds the concurrent flow evaluations inside one
	// ladder or sweep job (default Workers). The total goroutine load
	// is therefore at most Workers*Parallelism evaluations.
	Parallelism int
	// CacheEntries sizes the content-addressed result cache
	// (default 512; 0 keeps the default, negative disables caching).
	CacheEntries int
	// JobTimeout caps a job's wall clock (default 2 minutes).
	JobTimeout time.Duration
	// RegistryLimit bounds retained finished jobs for GET /v1/jobs/{id}
	// (default 1024); the oldest finished jobs are evicted first.
	RegistryLimit int
	// Metrics receives counters and latencies; nil allocates a private
	// set (retrievable via Pool.Metrics).
	Metrics *Metrics

	// WatchdogGrace is how long past JobTimeout the watchdog waits for
	// a wedged job to honour cancellation before abandoning its
	// goroutine and failing the job with ErrWatchdog (default 2s).
	// Abandoned goroutines park until the wedge releases (see
	// Pool.AbandonedInFlight); each job has one attempt, so each
	// submission can park at most one.
	WatchdogGrace time.Duration
	// Journal, when set, write-ahead-logs accepted jobs (fsync before
	// run) and their outcomes, so a restart re-runs interrupted work
	// and re-warms stored results via RecoverFromJournal. It never
	// holds a result body.
	Journal *Journal
	// Store, when set, adds a disk tier under the RAM cache: completed
	// results persist as content-addressed records, cache misses
	// consult the store before recomputing, and the store's admission
	// sketch gates RAM promotion (TinyLFU). The store is the only place
	// a result is durable; without one, results live in RAM alone.
	Store *cas.Store
	// Injector, when set, injects deterministic faults at the pool and
	// flow-stage seams (chaos testing).
	Injector *faultinject.Injector
}

// Pool is the job engine: a bounded worker pool over Run with a
// content-addressed cache, in-flight deduplication, per-job timeouts,
// and panic recovery. Each job gets exactly one attempt. Do is
// synchronous — the caller's goroutine carries the job through a worker
// slot — so shutting down the HTTP server that fronts the pool drains it
// for free.
type Pool struct {
	opt     Options
	slots   chan struct{}
	cache   *Cache
	store   *cas.Store
	metrics *Metrics

	// queued counts submissions waiting for a worker slot — the
	// admission-control signal the HTTP layer sheds on.
	queued atomic.Int64

	// abandoned counts watchdog-abandoned jobs whose goroutines are
	// still parked on whatever wedged them; each holds working memory
	// beyond the Workers limit.
	abandoned atomic.Int64

	// runFn replaces Run in tests (nil means Run).
	runFn func(ctx context.Context, c Spec, parallelism int) (*Result, error)

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // FIFO of finished job ids, for registry eviction
	inflight map[string]*Job

	// repair, when set (SetReadRepair), fetches a verified copy of a
	// locally corrupt/quarantined result from its replica set before Do
	// admits a recompute. Guarded by mu; read only on the cold corrupt
	// path.
	repair func(ctx context.Context, id string) (*Stored, bool)
}

// Job tracks one submission through the pool.
type Job struct {
	ID   string
	Spec Spec

	mu       sync.Mutex
	state    State
	err      error
	result   *Result
	created  time.Time
	started  time.Time
	finished time.Time
	done     chan struct{}

	// joined is where finish leaves the answer for requests that joined
	// the job in flight. Only those requests keep it once the job is
	// done, so the registry pins the decoded result, which the cache
	// shares, and not a second copy of the bytes. Guarded by Pool.mu.
	joined *Answer
}

// JobStatus is the JSON view of a job (GET /v1/jobs/{id}).
type JobStatus struct {
	ID         string  `json:"id"`
	Kind       Kind    `json:"kind"`
	State      State   `json:"state"`
	Error      string  `json:"error,omitempty"`
	CreatedAt  string  `json:"created_at"`
	StartedAt  string  `json:"started_at,omitempty"`
	FinishedAt string  `json:"finished_at,omitempty"`
	ElapsedMS  float64 `json:"elapsed_ms,omitempty"`
	Result     *Result `json:"result,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		Kind:      j.Spec.Kind,
		State:     j.state,
		CreatedAt: j.created.UTC().Format(time.RFC3339Nano),
		Result:    j.result,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
		st.ElapsedMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	}
	return st
}

// wait blocks until the job finishes or ctx is done, returning the
// joined answer a (the job's joined, taken under Pool.mu) or the job's
// (or context's) error.
func (j *Job) wait(ctx context.Context, a *Answer) (Answer, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return Answer{}, ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return Answer{}, j.err
	}
	return *a, nil
}

// NewPool builds a pool from opt, applying defaults.
func NewPool(opt Options) *Pool {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.Parallelism <= 0 {
		opt.Parallelism = opt.Workers
	}
	switch {
	case opt.CacheEntries == 0:
		opt.CacheEntries = 512
	case opt.CacheEntries < 0:
		opt.CacheEntries = 0
	}
	if opt.JobTimeout <= 0 {
		opt.JobTimeout = 2 * time.Minute
	}
	if opt.RegistryLimit <= 0 {
		opt.RegistryLimit = 1024
	}
	if opt.Metrics == nil {
		opt.Metrics = NewMetrics()
	}
	if opt.WatchdogGrace <= 0 {
		opt.WatchdogGrace = 2 * time.Second
	}
	p := &Pool{
		opt:      opt,
		slots:    make(chan struct{}, opt.Workers),
		cache:    NewCache(opt.CacheEntries),
		store:    opt.Store,
		metrics:  opt.Metrics,
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
	}
	if p.store != nil {
		// RAM promotion is TinyLFU-gated: a candidate displaces the LRU
		// victim only when the store's frequency sketch rates it at
		// least as hot, so a scan over cold keys cannot flush the
		// working set out of RAM.
		p.cache.SetAdmission(p.store.Admit)
	}
	return p
}

// Metrics returns the pool's metrics set.
func (p *Pool) Metrics() *Metrics { return p.metrics }

// Cache returns the pool's result cache.
func (p *Pool) Cache() *Cache { return p.cache }

// Workers reports the worker-slot count.
func (p *Pool) Workers() int { return p.opt.Workers }

// Lookup returns the tracked job with the given id (a canonical spec
// hash), if the registry still holds it.
func (p *Pool) Lookup(id string) (*Job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	return j, ok
}

// Provenance names the path that produced one answer; gapd sends it as
// the X-Gapd-Served-By response header.
type Provenance string

// The paths an answer can take.
const (
	ServedRAM     Provenance = "ram"     // the RAM cache
	ServedCAS     Provenance = "cas"     // the disk store (then promoted to RAM)
	ServedRepair  Provenance = "repair"  // a verified copy fetched from the replica set
	ServedJoin    Provenance = "join"    // an identical compute already in flight
	ServedCompute Provenance = "compute" // computed for this request
	ServedForward Provenance = "forward" // relayed verbatim from the owning peer
)

// Answer is one request's answer: the result's stored form plus how this
// request came by it. Stored is shared with the cache and must not be
// mutated.
type Answer struct {
	*Stored
	By Provenance
}

// Do executes the spec through the pool and returns its result; it is
// Serve with the answer decoded.
func (p *Pool) Do(ctx context.Context, s Spec) (*Result, error) {
	a, err := p.Serve(ctx, s)
	if err != nil {
		return nil, err
	}
	return a.Result()
}

// Serve executes the spec through the pool and returns its stored
// answer: from the cache when an identical evaluation already ran, from
// the disk store, by joining an identical in-flight job when one is
// running, and otherwise by carrying the job through a worker slot for
// one attempt under the pool's timeout and watchdog, behind its panic
// fence. A computed result is encoded once, here, and every later answer
// for its address reuses those bytes. Serve blocks; cancel ctx to give
// up waiting (the underlying computation stops at the next flow-stage
// boundary).
//
// Failure handling: a failed job is terminal. An evaluation is a pure
// function of its canonical spec, so a spec that panicked or wedged
// would do the same on a second attempt. The error is labelled by
// Classify (spec / transient / canceled / fatal) and journaled, and the
// cache only ever stores fully successful results — a failed job
// leaves no cache entry, so a later submission runs it afresh.
func (p *Pool) Serve(ctx context.Context, s Spec) (Answer, error) {
	c, err := s.Canon()
	if err != nil {
		return Answer{}, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	id := c.Hash()

	// Tiered lookup: RAM cache, then the disk store, then compute. The
	// sketch touch records this access's frequency whichever tier
	// answers — it is what admission and budget eviction rank on.
	lookupStart := time.Now()
	if p.store != nil {
		p.store.Touch(id)
	}
	if st, ok := p.cache.Get(id); ok {
		p.metrics.CacheHits.Add(1)
		p.metrics.Observe("tier_hit_ram", time.Since(lookupStart))
		return Answer{Stored: st, By: ServedRAM}, nil
	}
	p.metrics.CacheMisses.Add(1)
	if p.store != nil {
		st, rerr := p.storeGetE(id)
		if rerr == nil {
			p.metrics.CASHits.Add(1)
			p.metrics.Observe("tier_hit_cas", time.Since(lookupStart))
			// Promote to RAM (admission-gated) so a second hit is a RAM
			// hit; the stored body stays the durable copy either way.
			p.cache.Put(id, st)
			return Answer{Stored: st, By: ServedCAS}, nil
		}
		if p.probeCorrupt(rerr, id) {
			// The record existed and rotted (or is still quarantined
			// from a scrub). Never served; before admitting a recompute,
			// try to repair from the replica set.
			p.metrics.CASCorruptReads.Add(1)
			if st, ok := p.readRepair(ctx, id); ok {
				p.metrics.Observe("tier_hit_repair", time.Since(lookupStart))
				return Answer{Stored: st, By: ServedRepair}, nil
			}
		}
		p.metrics.CASMisses.Add(1)
	}

	p.mu.Lock()
	if j, ok := p.inflight[id]; ok {
		a := j.joined
		p.mu.Unlock()
		return j.wait(ctx, a)
	}
	// An identical job can finish between the lookup above and taking mu.
	// Its result is cached before finish releases the in-flight slot, so
	// it is here, and this request joined it rather than recomputing.
	if st, ok := p.cache.Get(id); ok {
		p.mu.Unlock()
		return Answer{Stored: st, By: ServedJoin}, nil
	}
	j := &Job{
		ID:      id,
		Spec:    c,
		state:   StateQueued,
		created: time.Now(),
		done:    make(chan struct{}),
		joined:  &Answer{By: ServedJoin},
	}
	p.inflight[id] = j
	p.registerLocked(j)
	p.mu.Unlock()

	// Write-ahead: once accepted (fsynced), the job survives a process
	// kill and a restart will recover it from the journal.
	p.journalAccept(id, c)

	// The submitting goroutine is the worker: acquire a slot.
	p.queued.Add(1)
	select {
	case p.slots <- struct{}{}:
		p.queued.Add(-1)
	case <-ctx.Done():
		p.queued.Add(-1)
		p.journalFail(id, ctx.Err(), ClassCanceled)
		p.finish(j, nil, ctx.Err())
		return Answer{}, ctx.Err()
	}
	defer func() { <-p.slots }()

	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	p.metrics.JobsStarted.Add(1)

	runStart := time.Now()
	res, err := p.runAttempt(ctx, c, id)
	var st *Stored
	if err == nil {
		// The one encode of this result: its bytes and digest are what
		// the cache, the store, replicas and every response use.
		st, err = Encode(res)
	}
	if err == nil {
		p.metrics.JobsCompleted.Add(1)
		p.metrics.Observe("job_"+string(c.Kind), time.Since(runStart))
		p.cache.Put(id, st)
		p.persistResult(st)
		p.finish(j, st, nil)
		return Answer{Stored: st, By: ServedCompute}, nil
	}

	if errors.Is(err, context.DeadlineExceeded) {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// The caller's own deadline expired, not the job's: the
			// caller gave up, the job did not time out.
			err = fmt.Errorf("jobs: job %s abandoned at the caller's deadline: %w", id[:12], err)
		} else {
			p.metrics.JobsTimedOut.Add(1)
			err = fmt.Errorf("jobs: job %s timed out after %v: %w", id[:12], p.opt.JobTimeout, err)
		}
	}
	class := Classify(ctx, err)
	p.metrics.JobsFailed.Add(1)
	err = fmt.Errorf("jobs: job %s failed (%s): %w", id[:12], class, err)
	if !errors.Is(err, ErrKilled) {
		// A simulated kill must leave no terminal record — that is
		// exactly the crash signature the journal replay recovers.
		p.journalFail(id, err, class)
	}
	p.finish(j, nil, err)
	return Answer{}, err
}

// runAttempt executes the job's one attempt with the pool's timeout,
// watchdog, panic fence, and fault-injection seams. The pool seam's
// fault site is keyed "pool/<kind>/<hash12>/a0"; stage seams append
// "/<stage>" via the injected stage hook, so every (job, stage) draws an
// independent, deterministic fault. The "/a0" names the first attempt
// from when a failed job could run again under "a1", "a2", …; keeping
// the key byte for byte means every committed chaos seed still draws the
// faults it always drew.
func (p *Pool) runAttempt(ctx context.Context, c Spec, id string) (*Result, error) {
	attemptKey := string(c.Kind) + "/" + id[:12] + "/a0"
	poolKey := ""
	if in := p.opt.Injector; in != nil {
		poolKey = "pool/" + attemptKey
		if in.Decide(poolKey) == faultinject.Kill {
			in.Kills.Add(1)
			return nil, fmt.Errorf("%w (injected at %s)", ErrKilled, poolKey)
		}
	}

	runCtx, cancel := context.WithTimeout(ctx, p.opt.JobTimeout)
	defer cancel()
	runCtx = core.WithStageObserver(runCtx, p.metrics.StageObserver())
	if in := p.opt.Injector; in != nil {
		runCtx = faultinject.WithAttemptKey(runCtx, attemptKey)
		runCtx = core.WithStageHook(runCtx, in.StageHook())
	}

	// The attempt runs on its own goroutine so the watchdog can reclaim
	// the worker slot from an evaluation that ignores its deadline. A
	// cooperative attempt returns through outcome; a wedged one is
	// abandoned (its goroutine parks until whatever wedged it lets go —
	// the panic fence still contains it) and the job fails with
	// ErrWatchdog, terminally: the same spec would wedge again.
	type outcome struct {
		res *Result
		err error
	}
	out := make(chan outcome, 1)
	// settled decides the race between the attempt finishing and the
	// watchdog firing: whoever wins the CAS owns the outcome. A losing
	// attempt goroutine was abandoned — it decrements the parked-attempt
	// gauge the watchdog incremented, once the wedge finally lets go.
	var settled atomic.Bool
	go func() {
		res, err := p.safeRun(runCtx, poolKey, c)
		out <- outcome{res, err}
		if !settled.CompareAndSwap(false, true) {
			p.abandoned.Add(-1)
		}
	}()

	wd := time.NewTimer(p.opt.JobTimeout + p.opt.WatchdogGrace)
	defer wd.Stop()
	select {
	case o := <-out:
		return o.res, o.err
	case <-wd.C:
		if !settled.CompareAndSwap(false, true) {
			// The attempt finished in the same instant the timer fired.
			o := <-out
			return o.res, o.err
		}
		p.abandoned.Add(1)
		p.metrics.JobsAbandoned.Add(1)
		return nil, fmt.Errorf("%w: job %s ignored its %v deadline for %v",
			ErrWatchdog, id[:12], p.opt.JobTimeout, p.opt.WatchdogGrace)
	}
}

// safeRun is Run behind a panic fence: a panicking flow evaluation fails
// its own job with a typed error (ErrPanicked) instead of taking down
// the service. The pool-level fault seam fires here — inside the fence
// and under the watchdog — so injected panics are contained and injected
// stalls are reclaimed like any other wedged attempt.
func (p *Pool) safeRun(ctx context.Context, poolKey string, c Spec) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			p.metrics.JobsPanicked.Add(1)
			err = fmt.Errorf("%w: %v\n%s", ErrPanicked, r, debug.Stack())
			res = nil
		}
	}()
	if in := p.opt.Injector; in != nil && poolKey != "" {
		if err := in.Fire(ctx, poolKey); err != nil {
			return nil, err
		}
	}
	run := p.runFn
	if run == nil {
		run = Run
	}
	return run(ctx, c, p.opt.Parallelism)
}

// StoreResult installs a result computed elsewhere — a replication
// write from a cluster peer — into this node's cache and store, after
// verifying its integrity: the payload's canonical spec must hash to
// the claimed content address, so a corrupted or mislabeled replica can
// never poison the cache with a wrong answer under a right key
// (failures wrap ErrBadReplica). It reports whether the result was new
// here (false means an identical entry already existed — the
// anti-entropy no-op). With a store attached, a replica survives the
// replica-holder's own restart.
func (p *Pool) StoreResult(res *Result) (created bool, err error) {
	if res == nil || res.ID == "" {
		return false, fmt.Errorf("%w: empty result", ErrBadReplica)
	}
	if err := verifyAddress(res); err != nil {
		return false, err
	}
	if p.HasStored(res.ID) {
		return false, nil
	}
	if _, err := p.publish(res); err != nil {
		return false, err
	}
	p.metrics.ReplicasStored.Add(1)
	return true, nil
}

// verifyAddress checks that res is the result its content address
// claims: the payload's canonical spec must hash to res.ID.
func verifyAddress(res *Result) error {
	canon, err := res.Spec.Canon()
	if err != nil {
		return fmt.Errorf("%w: spec does not canonicalize: %v", ErrBadReplica, err)
	}
	if canon.Hash() != res.ID {
		return fmt.Errorf("%w: spec hashes to %s, claimed id %s",
			ErrBadReplica, canon.Hash()[:12], res.ID[:min(12, len(res.ID))])
	}
	return nil
}

// publish encodes a verified result that arrived from elsewhere (a
// replica push, a read-repair) into this node's stored form, caches it
// and persists it.
func (p *Pool) publish(res *Result) (*Stored, error) {
	st, err := Encode(res)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadReplica, err)
	}
	p.cache.Put(st.ID, st)
	p.persistResult(st)
	return st, nil
}

// QueueDepth reports submissions waiting for a worker slot — the load
// signal admission control sheds on.
func (p *Pool) QueueDepth() int { return int(p.queued.Load()) }

// AbandonedInFlight reports watchdog-abandoned jobs whose goroutines are
// still parked on whatever wedged them — an operator alert signal: a
// persistently nonzero value means evaluations are ignoring
// cancellation.
func (p *Pool) AbandonedInFlight() int { return int(p.abandoned.Load()) }

// InFlight reports jobs accepted but not yet finished (queued or
// running).
func (p *Pool) InFlight() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.inflight)
}

// Journal returns the pool's journal, or nil.
func (p *Pool) Journal() *Journal { return p.opt.Journal }

// journalAccept write-ahead-logs an accepted job; a failed write counts
// as a journal error and degrades health, but never blocks the job.
func (p *Pool) journalAccept(id string, c Spec) {
	j := p.opt.Journal
	if j == nil {
		return
	}
	if err := j.Accept(id, c); err != nil {
		p.metrics.JournalErrors.Add(1)
		return
	}
	p.metrics.JournalAccepted.Add(1)
}

// journalStored records that a job's result is durable — a slim
// pointer to the CAS record, or, with no store, the bare close of the
// accept. The record is unsynced: the CAS write it points at already
// fsynced, and recovery checks the store before re-running a pending
// accept, so losing the pointer costs an index lookup, not a recompute
// (without a store, one re-run at the next boot).
func (p *Pool) journalStored(id string) {
	j := p.opt.Journal
	if j == nil {
		return
	}
	if err := j.Stored(id); err != nil {
		p.metrics.JournalErrors.Add(1)
		return
	}
	p.metrics.JournalStored.Add(1)
}

// journalFail closes out a terminally failed job.
func (p *Pool) journalFail(id string, err error, class Class) {
	j := p.opt.Journal
	if j == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	if jerr := j.Fail(id, msg, class); jerr != nil {
		p.metrics.JournalErrors.Add(1)
		return
	}
	p.metrics.JournalFailed.Add(1)
}

// finish publishes the job's outcome and releases the in-flight slot.
func (p *Pool) finish(j *Job, st *Stored, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	if j.started.IsZero() {
		j.started = j.finished
	}
	if err != nil {
		j.state = StateFailed
		j.err = err
	} else {
		j.state = StateDone
		j.result, _ = st.Result() // st was encoded from its result: no decode
		j.joined.Stored = st
	}
	j.mu.Unlock()
	close(j.done)

	p.mu.Lock()
	delete(p.inflight, j.ID)
	j.joined = nil
	p.finished = append(p.finished, j.ID)
	p.evictLocked()
	p.mu.Unlock()
}

// registerLocked adds the job to the registry. Caller holds p.mu.
func (p *Pool) registerLocked(j *Job) {
	p.jobs[j.ID] = j
}

// evictLocked trims the finished-job registry to the configured limit.
// Caller holds p.mu.
func (p *Pool) evictLocked() {
	for len(p.finished) > p.opt.RegistryLimit {
		id := p.finished[0]
		p.finished = p.finished[1:]
		// Only drop the registry entry if a newer job has not reused
		// the id (a re-run after cache eviction).
		if j, ok := p.jobs[id]; ok {
			j.mu.Lock()
			terminal := j.state == StateDone || j.state == StateFailed
			j.mu.Unlock()
			if terminal {
				if _, running := p.inflight[id]; !running {
					delete(p.jobs, id)
				}
			}
		}
	}
}
