// Package serve exposes the internal/jobs engine as a small JSON HTTP
// API (the gapd service): submit evaluate / ladder / sweep jobs, inspect
// tracked jobs, and scrape service metrics. Only the standard library is
// used; routing relies on Go 1.22 net/http method-and-path patterns.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
)

// Options configures the HTTP handler.
type Options struct {
	// Pool executes the jobs (required).
	Pool *jobs.Pool
	// Cluster, when set, shards the service: specs owned by a peer are
	// forwarded (with hedged reads), specs owned by this node run
	// locally, and requests already forwarded once are always served
	// locally (the loop guard). Nil keeps the single-node behaviour.
	Cluster *cluster.Cluster
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// RequestTimeout caps one request's job wait (default 5 minutes;
	// the pool's own JobTimeout still applies underneath).
	RequestTimeout time.Duration
	// MaxQueueDepth bounds submissions admitted beyond the worker count;
	// requests past it are shed with 429 and a Retry-After hint instead
	// of growing the queue without bound. Default 4x the pool's workers;
	// negative disables shedding.
	MaxQueueDepth int
	// MaxPerClient caps concurrent submissions per client (keyed by
	// remote host), so one aggressive client cannot monopolize the
	// admission budget. Default 2x the pool's workers; negative disables.
	MaxPerClient int
	// RetryAfter is the backoff hint sent with shed responses (default
	// 1s, rounded up to whole seconds on the wire).
	RetryAfter time.Duration
	// CorruptThreshold is how many quarantined (condemned, unrepaired)
	// store records /healthz tolerates before degrading — but only when
	// no replica repair path exists (no cluster, or replication factor
	// 1): with replicas, read-repair and the placement tick heal quarantined
	// records as a matter of course, while without them every
	// quarantined record is a recompute waiting to happen and operators
	// should know. Default 0 (any unrepairable quarantined record
	// degrades).
	CorruptThreshold int
}

// handler carries the resolved options and the admission state.
type handler struct {
	pool           *jobs.Pool
	cluster        *cluster.Cluster
	maxBodyBytes   int64
	requestTimeout time.Duration
	maxPending     int // workers + MaxQueueDepth; -1 disables
	maxPerClient   int
	retryAfter     time.Duration
	corruptMax     int // quarantined records tolerated sans repair path

	// pending counts admitted-but-unfinished submissions, which strictly
	// bounds the pool-facing queue: a request sheds before entering the
	// pool, never after.
	pending atomic.Int64
	// deadlineRejected counts submissions refused at the door because
	// their propagated X-Gapd-Deadline had already passed — work that
	// would have been computed for a caller no longer waiting.
	deadlineRejected atomic.Int64

	// start anchors the uptime_seconds metric: how long this handler
	// (in practice, this gapd process) has been serving. gapload stamps
	// reports with it so a measurement can be tied to one server
	// incarnation (a restart resets it along with the cache).
	start time.Time

	// draining flips when this node announces a drain (POST /v1/drain
	// or the SIGTERM hook): /healthz answers 503 with Retry-After, new
	// work is shed to the next rendezvous rank (or refused), and only
	// in-flight jobs and cache/replica reads are still served.
	draining atomic.Bool

	mu        sync.Mutex
	perClient map[string]int

	// bg tracks the off-response-path goroutines the handler spawns
	// (replica pushes, async drains) so shutdown can wait for them
	// (Handler.Quiesce) instead of killing a replication mid-push.
	bg sync.WaitGroup
}

// Handler is the gapd HTTP handler plus its operational controls. It
// serves the route table NewHandler documents; StartDrain switches the
// node into drain mode for zero-loss shutdown.
type Handler struct {
	inner *handler
	mux   *http.ServeMux
}

// ServeHTTP implements http.Handler.
func (hd *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	hd.mux.ServeHTTP(w, r)
}

// StartDrain puts the node into drain mode: /healthz degrades to 503,
// fresh submissions are forwarded to the next rendezvous rank (refused
// with 503 when no peer can take them), in-flight jobs keep running,
// and — on a clustered node — the drain is announced to the cluster
// and every held result is migrated to its new home. Returns the number
// of results newly placed elsewhere. Idempotent.
func (hd *Handler) StartDrain(ctx context.Context) (int, error) {
	hd.inner.draining.Store(true)
	cl := hd.inner.cluster
	if cl == nil {
		return 0, nil
	}
	return cl.Drain(ctx)
}

// Draining reports whether the node is in drain mode.
func (hd *Handler) Draining() bool { return hd.inner.draining.Load() }

// Quiesce blocks until every background goroutine the handler spawned
// (replica pushes off the response path, async drains) has finished.
// Call it after the HTTP server has stopped accepting requests and
// before tearing down the cluster client those goroutines use.
func (hd *Handler) Quiesce() { hd.inner.bg.Wait() }

// NewHandler builds the gapd route table:
//
//	POST /v1/evaluate  run one flow evaluation
//	POST /v1/ladder    run the section 3 factor ladder (rungs in parallel)
//	POST /v1/sweep     run a pipeline-depth sweep (depths in parallel)
//	GET  /v1/jobs/{id} job status by canonical spec hash
//	GET  /v1/results/{id} stored result by content address (replica reads)
//	PUT  /v1/results/{id} store a replica pushed by a peer (digest-checked)
//	POST /v1/gossip    membership exchange (see cluster.GossipMsg)
//	POST /v1/drain     announce drain + migrate held results (?wait=1 blocks)
//	GET  /v1/cluster   cluster membership, health, and ownership stats
//	GET  /v1/version   build info (module, version, Go toolchain, VCS)
//	GET  /healthz      liveness (503 + Retry-After while draining)
//	GET  /metrics      counters, cache traffic, latency histograms (JSON)
func NewHandler(opt Options) *Handler {
	if opt.Pool == nil {
		panic("serve: Options.Pool is required")
	}
	h := &handler{
		pool:           opt.Pool,
		cluster:        opt.Cluster,
		maxBodyBytes:   opt.MaxBodyBytes,
		requestTimeout: opt.RequestTimeout,
		maxPerClient:   opt.MaxPerClient,
		retryAfter:     opt.RetryAfter,
		corruptMax:     opt.CorruptThreshold,
		start:          time.Now(),
		perClient:      map[string]int{},
	}
	if opt.Cluster != nil {
		// Read-repair wiring: a corrupt or quarantined store record is
		// fetched back from its replica set (digest + content-address
		// verified) before the pool admits a recompute.
		opt.Pool.SetReadRepair(opt.Cluster.ReadRepair)
	}
	if h.maxBodyBytes <= 0 {
		h.maxBodyBytes = 1 << 20
	}
	if h.requestTimeout <= 0 {
		h.requestTimeout = 5 * time.Minute
	}
	switch {
	case opt.MaxQueueDepth < 0:
		h.maxPending = -1
	case opt.MaxQueueDepth == 0:
		h.maxPending = opt.Pool.Workers() * 5 // workers + 4x queue
	default:
		h.maxPending = opt.Pool.Workers() + opt.MaxQueueDepth
	}
	if h.maxPerClient == 0 {
		h.maxPerClient = opt.Pool.Workers() * 2
	}
	if h.retryAfter <= 0 {
		h.retryAfter = time.Second
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/evaluate", h.submit(jobs.KindEvaluate))
	mux.HandleFunc("POST /v1/ladder", h.submit(jobs.KindLadder))
	mux.HandleFunc("POST /v1/sweep", h.submit(jobs.KindSweep))
	mux.HandleFunc("GET /v1/jobs/{id}", h.jobStatus)
	mux.HandleFunc("GET /v1/results/{id}", h.getResult)
	mux.HandleFunc("PUT /v1/results/{id}", h.putResult)
	mux.HandleFunc("POST /v1/gossip", h.gossip)
	mux.HandleFunc("POST /v1/drain", h.drain)
	mux.HandleFunc("GET /v1/cluster", h.clusterStatus)
	mux.HandleFunc("GET /v1/version", h.version)
	mux.HandleFunc("GET /healthz", h.healthz)
	mux.HandleFunc("GET /metrics", h.metrics)
	return &Handler{inner: h, mux: mux}
}

// submit returns the handler for one job-kind endpoint. The body is a
// jobs.Spec; its kind field may be omitted (the endpoint implies it) but
// must match the endpoint when present. Admission control runs before
// the pool sees the request: overload beyond the queue budget and
// clients beyond their concurrency cap are shed with 429 + Retry-After,
// keeping the pool-facing queue bounded.
func (h *handler) submit(kind jobs.Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// Deadline admission runs before anything else: a request whose
		// propagated deadline has already passed gets 504 without
		// touching the admission budget or the pool — the caller is no
		// longer waiting, so any work done for it is pure waste.
		deadline, err := parseDeadline(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if !deadline.IsZero() && !deadline.After(time.Now()) {
			h.deadlineRejected.Add(1)
			writeError(w, http.StatusGatewayTimeout,
				fmt.Errorf("deadline %s already passed at admission", deadline.UTC().Format(time.RFC3339Nano)))
			return
		}

		release, err := h.admit(r)
		if err != nil {
			h.pool.Metrics().JobsShed.Add(1)
			h.setRetryAfter(w)
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		defer release()

		spec, status, err := h.decodeSpec(w, r, kind)
		if err != nil {
			writeError(w, status, err)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), h.requestTimeout)
		defer cancel()
		if !deadline.IsZero() {
			// Chain the propagated deadline under the server's own cap;
			// context.WithDeadline keeps whichever is earlier, so a
			// multi-hop chain can only shrink the time budget.
			var dcancel context.CancelFunc
			ctx, dcancel = context.WithDeadline(ctx, deadline)
			defer dcancel()
		}

		// Forward-or-serve: with clustering on, a spec owned by a peer
		// is proxied to it (hedged); the loop guard serves already-
		// forwarded requests locally no matter who owns them. While
		// draining, the ring already excludes this node, so the same
		// path sheds fresh work to the next rendezvous rank.
		if h.cluster != nil && r.Header.Get(cluster.ForwardedHeader) == "" {
			if done := h.tryForward(ctx, w, spec, r.URL.Path, start); done {
				return
			}
		}
		// Drain gate: in-flight jobs (admitted before the drain) finish,
		// and already-finished work is still served from RAM or the CAS
		// store, but nothing new is computed — a request no peer could
		// take is refused with 503 + Retry-After rather than admitted.
		if h.draining.Load() {
			if !h.pool.HasStored(spec.Hash()) {
				h.setRetryAfter(w)
				writeError(w, http.StatusServiceUnavailable,
					errors.New("node is draining; retry against another node"))
				return
			}
		}
		if h.cluster != nil {
			h.cluster.Metrics().Local.Add(1)
			// Before computing, ask the result's replica set for an
			// already-finished copy: a node that just joined (or rejoined
			// after a restart) owns addresses whose results live on the
			// previous owners until handoff converges, and fetching one
			// replica read beats recomputing the job.
			if h.serveReplica(ctx, w, spec.Hash(), start) {
				return
			}
		}
		ans, err := h.pool.Serve(ctx, spec)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		if h.cluster != nil && ans.By == jobs.ServedCompute {
			// Freshly computed: place the result at its rendezvous
			// targets off the response path. Every other answer was
			// placed when it was computed (or arrived by placement
			// itself). The push is bg-tracked so Quiesce can wait for it
			// at shutdown, and bounded by its own timeout rather than the
			// dead request context.
			h.bg.Add(1)
			go func() {
				defer h.bg.Done()
				rctx, cancel := context.WithTimeout(context.Background(), h.requestTimeout)
				defer cancel()
				h.cluster.Replicate(rctx, ans.Stored)
			}()
		}
		writeAnswer(w, ans, start)
	}
}

// parseDeadline reads the propagated X-Gapd-Deadline header; the zero
// time means none was sent.
func parseDeadline(r *http.Request) (time.Time, error) {
	v := r.Header.Get(cluster.DeadlineHeader)
	if v == "" {
		return time.Time{}, nil
	}
	t, err := time.Parse(time.RFC3339Nano, v)
	if err != nil {
		return time.Time{}, fmt.Errorf("invalid %s header %q: %w", cluster.DeadlineHeader, v, err)
	}
	return t, nil
}

// tryForward routes one decoded spec through the cluster. It reports
// true when it wrote the response (a peer answered, or relayed a
// terminal verdict); false means the caller should compute locally —
// either this node is the acting owner, or every peer was unavailable
// and availability wins over cache affinity (the degraded-mode
// fallback).
func (h *handler) tryForward(ctx context.Context, w http.ResponseWriter, spec jobs.Spec, path string, start time.Time) bool {
	cl := h.cluster
	hash := spec.Hash()
	rt := cl.Route(hash)
	if rt.Local {
		if rt.Fallback {
			cl.Metrics().Fallback.Add(1)
			if h.serveReplica(ctx, w, hash, start) {
				return true
			}
		}
		return false
	}
	st, err := cl.Forward(ctx, path, spec, rt)
	switch {
	case err == nil:
		cl.Metrics().Forwarded.Add(1)
		if rt.Fallback {
			cl.Metrics().Fallback.Add(1)
		}
		// The owner's bytes go out verbatim under the owner's digest.
		writeAnswer(w, jobs.Answer{Stored: st, By: jobs.ServedForward}, start)
		return true
	case errors.Is(err, jobs.ErrSpec):
		// The peer ran the job and the spec is bad on any node
		// (evaluation is deterministic): relay the verdict.
		writeError(w, http.StatusBadRequest, err)
		return true
	case ctx.Err() != nil:
		writeError(w, statusFor(ctx.Err()), err)
		return true
	default:
		// Every target unavailable: the next node in rendezvous order
		// is us now. Before re-computing, ask the result's replica peers
		// for an already-finished copy — a partition cannot un-finish
		// work that was replicated before it started. Otherwise compute
		// locally — no warm cache, full availability.
		cl.Metrics().Fallback.Add(1)
		if h.serveReplica(ctx, w, hash, start) {
			return true
		}
		return false
	}
}

// serveReplica answers a request this node would otherwise compute
// from a peer-held replica of an already-computed result, when one
// exists. Local tiers are checked first — RAM cache and CAS store
// (pool.Do would hit either anyway — skip the network), and a record
// the store has quarantined is left to the pool's read-repair, which
// fetches the same replica and heals the store; a fetched replica is
// stored locally so repeated requests during the same partition are
// served without re-fetching.
func (h *handler) serveReplica(ctx context.Context, w http.ResponseWriter, hash string, start time.Time) bool {
	if h.pool.HasStored(hash) || h.pool.Store().Quarantined(hash) {
		return false // pool.Serve serves the local copy or read-repairs it
	}
	st, ok := h.cluster.FetchResult(ctx, hash)
	if !ok {
		return false
	}
	res, err := st.Result()
	if err == nil {
		_, err = h.pool.StoreResult(res)
	}
	if err != nil {
		// An integrity failure here means the replica is not the result
		// it claims to be; do not serve it.
		return false
	}
	writeAnswer(w, jobs.Answer{Stored: st, By: jobs.ServedRepair}, start)
	return true
}

// gossip serves POST /v1/gossip: one SWIM membership exchange. The
// sender's records are merged into this node's view and the full view
// is returned, so a single round-trip converges both sides.
func (h *handler) gossip(w http.ResponseWriter, r *http.Request) {
	if h.cluster == nil {
		writeError(w, http.StatusNotFound, errors.New("clustering disabled (no -peers)"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	var msg cluster.GossipMsg
	if err := json.Unmarshal(body, &msg); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid gossip body: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, h.cluster.HandleGossip(r.Context(), msg))
}

// drain serves POST /v1/drain: flip the node into drain mode, announce
// it to the cluster, and migrate held results to their new owners. The
// default is asynchronous (202 immediately, handoff in the background);
// ?wait=1 blocks until the handoff sweep is clean and reports how many
// results migrated — what a rolling-restart orchestrator polls before
// killing the process.
func (h *handler) drain(w http.ResponseWriter, r *http.Request) {
	if h.cluster == nil {
		writeError(w, http.StatusNotFound, errors.New("clustering disabled (no -peers)"))
		return
	}
	h.draining.Store(true)
	if r.URL.Query().Get("wait") == "1" {
		ctx, cancel := context.WithTimeout(r.Context(), h.requestTimeout)
		defer cancel()
		migrated, err := h.cluster.Drain(ctx)
		if err != nil {
			writeJSON(w, http.StatusAccepted, map[string]any{
				"status": "draining", "migrated": migrated, "error": err.Error(),
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "drained", "migrated": migrated})
		return
	}
	h.bg.Add(1)
	go func() {
		defer h.bg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), h.requestTimeout)
		defer cancel()
		_, _ = h.cluster.Drain(ctx)
	}()
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "draining"})
}

// clusterStatus serves GET /v1/cluster.
func (h *handler) clusterStatus(w http.ResponseWriter, r *http.Request) {
	if h.cluster == nil {
		writeError(w, http.StatusNotFound, errors.New("clustering disabled (no -peers)"))
		return
	}
	writeJSON(w, http.StatusOK, h.cluster.Status())
}

// version serves GET /v1/version.
func (h *handler) version(w http.ResponseWriter, r *http.Request) {
	body := Version().payload()
	if h.cluster != nil {
		body["node"] = h.cluster.Self()
	}
	writeJSON(w, http.StatusOK, body)
}

// admit applies the two admission gates — global pending budget and
// per-client concurrency — and returns the release that undoes both.
func (h *handler) admit(r *http.Request) (release func(), err error) {
	if h.maxPending >= 0 {
		if n := h.pending.Add(1); n > int64(h.maxPending) {
			h.pending.Add(-1)
			return nil, fmt.Errorf("overloaded: %d submissions pending (budget %d)",
				n-1, h.maxPending)
		}
	} else {
		h.pending.Add(1)
	}
	client := clientKey(r)
	if h.maxPerClient >= 0 {
		h.mu.Lock()
		if h.perClient[client] >= h.maxPerClient {
			n := h.perClient[client]
			h.mu.Unlock()
			h.pending.Add(-1)
			return nil, fmt.Errorf("client %s has %d submissions in flight (cap %d)",
				client, n, h.maxPerClient)
		}
		h.perClient[client]++
		h.mu.Unlock()
	}
	return func() {
		h.pending.Add(-1)
		if h.maxPerClient >= 0 {
			h.mu.Lock()
			if h.perClient[client]--; h.perClient[client] <= 0 {
				delete(h.perClient, client)
			}
			h.mu.Unlock()
		}
	}, nil
}

// clientKey identifies the client for per-client caps: the remote host,
// or the whole RemoteAddr when it has no port.
func clientKey(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// setRetryAfter attaches the shed backoff hint, rounded up to whole
// seconds as the header requires.
func (h *handler) setRetryAfter(w http.ResponseWriter) {
	secs := int((h.retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// decodeSpec parses and validates the request body into a canonical spec
// of the endpoint's kind, returning the HTTP status for a rejection:
// 415 for a non-JSON content type, 413 for a body past the size limit,
// and 400 for everything malformed inside the body (bad JSON, trailing
// data, unknown fields, an unknown or mismatched job kind, spec
// validation failures). Every rejection is written as the JSON error
// envelope {"error": "..."}.
func (h *handler) decodeSpec(w http.ResponseWriter, r *http.Request, kind jobs.Kind) (jobs.Spec, int, error) {
	var spec jobs.Spec
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || mt != "application/json" {
			return spec, http.StatusUnsupportedMediaType,
				fmt.Errorf("content type %q not supported; use application/json", ct)
		}
	}
	body := http.MaxBytesReader(w, r.Body, h.maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return spec, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", maxErr.Limit)
		}
		return spec, http.StatusBadRequest, fmt.Errorf("invalid JSON body: %w", err)
	}
	if dec.More() {
		return spec, http.StatusBadRequest, errors.New("request body has trailing data")
	}
	if spec.Kind != "" && !strings.EqualFold(string(spec.Kind), string(kind)) {
		return spec, http.StatusBadRequest,
			fmt.Errorf("spec kind %q does not match endpoint %q", spec.Kind, kind)
	}
	spec.Kind = kind
	c, err := spec.Canon()
	if err != nil {
		return spec, http.StatusBadRequest, err
	}
	return c, http.StatusOK, nil
}

// jobStatus serves GET /v1/jobs/{id}.
func (h *handler) jobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if len(id) != 64 || strings.Trim(id, "0123456789abcdef") != "" {
		writeError(w, http.StatusBadRequest, errors.New("id must be 64 lowercase hex characters"))
		return
	}
	j, ok := h.pool.Lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %s not found", id))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// getResult serves GET /v1/results/{id}: the internal replication read.
// It resolves through the two places a result lives — the result cache,
// then the CAS store's segment index — and 404s otherwise. The body is the result's stored bytes under their digest,
// the same bytes a POST for the spec returns, so the fetching peer
// verifies them end to end.
func (h *handler) getResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !validAddr(id) {
		writeError(w, http.StatusBadRequest, errors.New("id must be 64 lowercase hex characters"))
		return
	}
	if st, ok := h.pool.StoredView().Get(id); ok {
		writeStored(w, st)
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("result %s not held here", id))
}

// putResult serves PUT /v1/results/{id}: a replica push from a peer.
// The body is verified twice before anything is stored — the raw bytes
// against the digest header, then the decoded result's canonical spec
// hash against its claimed content address — so neither wire corruption
// nor a confused peer can seed the cache with a wrong answer. 201 means
// newly stored, 200 already present, 400 failed verification.
func (h *handler) putResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !validAddr(id) {
		writeError(w, http.StatusBadRequest, errors.New("id must be 64 lowercase hex characters"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxReplicaBody))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	if d := r.Header.Get(cluster.DigestHeader); d != "" {
		sum := sha256.Sum256(body)
		if hex.EncodeToString(sum[:]) != d {
			writeError(w, http.StatusBadRequest,
				errors.New("replica body does not match its digest"))
			return
		}
	}
	var res jobs.Result
	if err := json.Unmarshal(body, &res); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid replica body: %w", err))
		return
	}
	if res.ID != id {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("replica body is for %.12s, path says %.12s", res.ID, id))
		return
	}
	created, err := h.pool.StoreResult(&res)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if created {
		writeJSON(w, http.StatusCreated, map[string]string{"status": "stored"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "exists"})
}

// maxReplicaBody bounds a pushed replica (same bound the cluster client
// applies to peer responses).
const maxReplicaBody = 8 << 20

// validAddr reports whether s is a well-formed content address.
func validAddr(s string) bool {
	return len(s) == 64 && strings.Trim(s, "0123456789abcdef") == ""
}

// healthz serves GET /healthz. It degrades to 503 when the service can
// accept work but should not be trusted with it: the journal is
// unwritable (jobs would run without crash safety) or the store holds
// condemned records it cannot repair.
func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":              "ok",
		"workers":             h.pool.Workers(),
		"queue_depth":         h.pool.QueueDepth(),
		"inflight":            h.pool.InFlight(),
		"abandoned_in_flight": h.pool.AbandonedInFlight(),
		"journal_healthy":     h.pool.Journal().Healthy(),
	}
	status := http.StatusOK
	if !h.pool.Journal().Healthy() {
		body["status"] = "degraded"
		status = http.StatusServiceUnavailable
	}
	if st := h.pool.Store(); st != nil {
		q := st.Stats().Quarantined
		body["quarantined"] = q
		if q > h.corruptMax && (h.cluster == nil || !h.cluster.ReplicationEnabled()) {
			// Condemned records with no replica set to repair from: every
			// one is data this node claimed to hold durably and now can
			// only recompute. With replicas the read-repair path heals
			// them silently and this stays "ok".
			body["status"] = "degraded"
			body["corrupt_quarantined"] = q
			status = http.StatusServiceUnavailable
		}
	}
	if h.draining.Load() {
		// Draining outranks degraded: load balancers and gossip probes
		// should route around this node while it finishes in-flight work,
		// and the Retry-After hint says when to look again.
		body["status"] = "draining"
		status = http.StatusServiceUnavailable
		h.setRetryAfter(w)
	}
	writeJSON(w, status, body)
}

// metrics serves GET /metrics as expvar-style JSON.
func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	snap := h.pool.Metrics().Snapshot()
	snap["cache_entries"] = h.pool.Cache().Len()
	snap["cache_capacity"] = h.pool.Cache().Cap()
	snap["workers"] = h.pool.Workers()
	snap["queue_depth"] = h.pool.QueueDepth()
	snap["inflight"] = h.pool.InFlight()
	snap["abandoned_in_flight"] = h.pool.AbandonedInFlight()
	snap["pending_requests"] = h.pending.Load()
	snap["deadline_rejected"] = h.deadlineRejected.Load()
	// With a disk tier attached, fold the store's own view (segment
	// layout, byte accounting, compaction history) into the cas section
	// the jobs metrics started: one scrape answers both "is the tier
	// hitting" and "how big is it on disk".
	if st := h.pool.Store(); st != nil {
		if cs, ok := snap["cas"].(map[string]any); ok {
			s := st.Stats()
			cs["segments"] = s.Segments
			cs["records"] = s.Records
			cs["live_bytes"] = s.LiveBytes
			cs["dead_bytes"] = s.DeadBytes
			cs["total_bytes"] = s.TotalBytes
			cs["puts"] = s.Puts
			cs["compactions"] = s.Compactions
			cs["evicted"] = s.Evicted
			cs["corrupt_dropped"] = s.CorruptDropped
			cs["torn_tails"] = s.TornTails
			cs["boot_records"] = s.BootRecords
			cs["segment_bytes"] = s.SegmentBytes
			cs["max_bytes"] = s.MaxBytes
			cs["scrub_verified"] = s.ScrubVerified
			cs["scrub_corrupt"] = s.ScrubCorrupt
			cs["scrub_repaired"] = s.ScrubRepaired
			cs["scrub_passes"] = s.ScrubPasses
			cs["scrub_cursor"] = s.ScrubCursor
			cs["quarantined"] = s.Quarantined
		}
	}
	snap["uptime_seconds"] = time.Since(h.start).Seconds()
	// build_info lets a load generator stamp its report with the exact
	// server build it measured (see cmd/gapload): a perf number without
	// the build that produced it is not evidence.
	bi := Version().payload()
	if h.cluster != nil {
		bi["node"] = h.cluster.Self()
		snap["cluster"] = h.cluster.MetricsSnapshot()
	}
	snap["build_info"] = bi
	writeJSON(w, http.StatusOK, snap)
}

// statusFor maps pool errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, jobs.ErrSpec):
		return http.StatusBadRequest
	case errors.Is(err, jobs.ErrPeerUnavailable):
		return http.StatusBadGateway
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeAnswer writes a result answer: the stored bytes as the body under
// the digest they were stored with, and this response's own facts —
// provenance, elapsed time — as headers. Nothing is encoded
// or hashed here.
func writeAnswer(w http.ResponseWriter, a jobs.Answer, start time.Time) {
	hdr := w.Header()
	hdr.Set(cluster.ServedByHeader, string(a.By))
	hdr.Set(cluster.ElapsedHeader, strconv.FormatFloat(float64(time.Since(start))/float64(time.Millisecond), 'f', 3, 64))
	writeStored(w, a.Stored)
}

// writeStored writes a result's stored bytes with status 200.
func writeStored(w http.ResponseWriter, st *jobs.Stored) {
	hdr := w.Header()
	hdr.Set("Content-Type", "application/json")
	hdr.Set(cluster.DigestHeader, st.Digest)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(st.Body)
}

// writeJSON writes v as indented JSON with the given status, stamped
// with the X-Gapd-Result-Digest of the exact body bytes. Buffering the
// encode (rather than streaming) is what makes the digest possible: the
// hash must cover the same bytes the peer will read. Result answers do
// not come through here (see writeAnswer).
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	body = append(body, '\n')
	sum := sha256.Sum256(body)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(cluster.DigestHeader, hex.EncodeToString(sum[:]))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeError writes a JSON error envelope.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
