package jobs

import (
	"context"
	"errors"

	"repro/internal/faultinject"
)

// The failure taxonomy. Every job failure the pool reports wraps exactly
// one of these markers (or ErrSpec from run.go), so callers can switch on
// errors.Is instead of matching strings, and the journal's failure
// label and the HTTP status mapping stay mechanical.
var (
	// ErrPanicked marks a job that panicked and was fenced by the pool.
	// Terminal: the evaluation is a pure function of its spec, so it
	// would panic again.
	ErrPanicked = errors.New("jobs: job panicked")
	// ErrWatchdog marks a job the watchdog reclaimed because the
	// evaluation ignored its deadline (a wedged worker). Terminal.
	ErrWatchdog = errors.New("jobs: watchdog killed job")
	// ErrKilled reports a simulated process kill from the fault
	// injector: the job was abandoned with no terminal journal record,
	// exactly as if gapd had died mid-job. Recovery tests replay the
	// journal to pick these up.
	ErrKilled = errors.New("jobs: worker killed")
	// ErrPeerUnavailable reports that a cluster peer could not answer a
	// forwarded request (transport failure, shedding, or peer-side
	// timeout). Transient: the forwarder falls down the rendezvous order
	// and ultimately computes locally, so the cluster loses throughput,
	// never availability.
	ErrPeerUnavailable = errors.New("jobs: peer unavailable")
	// ErrBadReplica reports that a replicated result failed its
	// integrity check on arrival: the payload's canonical spec does not
	// hash to the claimed content address, so storing it would poison
	// the cache with a wrong answer under a right key. Terminal for the
	// replication write — the sender should recompute or re-send, never
	// force the store.
	ErrBadReplica = errors.New("jobs: replica failed integrity check")
)

// Class labels a job failure in its error and its journal record. The
// pool runs every job once whatever its class; the label tells an
// operator whose fault it was.
type Class string

// Failure classes.
const (
	// ClassTransient failures are faults of one run rather than of the
	// spec: an unreachable peer, an injected fault, the job's own
	// timeout, or a cancellation the caller did not make. A later
	// submission may succeed.
	ClassTransient Class = "transient"
	// ClassSpec failures are the client's fault; resubmitting cannot help.
	ClassSpec Class = "spec"
	// ClassCanceled failures mean the caller gave up; the work is
	// abandoned.
	ClassCanceled Class = "canceled"
	// ClassFatal failures are internal errors the same spec would
	// repeat: a panic, a wedge the watchdog reclaimed, a simulated kill,
	// or any error the taxonomy does not name.
	ClassFatal Class = "fatal"
)

// Classify buckets err. ctx is the job's outer context: a
// context.Canceled or DeadlineExceeded with ctx dead is the caller
// hanging up (canceled), whereas one while the caller is still waiting
// is the job's own timeout or a cancellation storm (transient).
func Classify(ctx context.Context, err error) Class {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrSpec):
		return ClassSpec
	case errors.Is(err, ErrPanicked), errors.Is(err, ErrWatchdog), errors.Is(err, ErrKilled):
		return ClassFatal
	case errors.Is(err, ErrPeerUnavailable), errors.Is(err, faultinject.ErrInjected):
		return ClassTransient
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		if ctx != nil && ctx.Err() != nil {
			return ClassCanceled
		}
		return ClassTransient
	default:
		return ClassFatal
	}
}
