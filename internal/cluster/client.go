package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/jobs"
)

// maxPeerResponse bounds a forwarded response body (a full ladder
// result is well under 1 MiB; 8 MiB leaves room without letting a
// misbehaving peer balloon memory).
const maxPeerResponse = 8 << 20

// DigestHeader carries the SHA-256 of the exact response body bytes.
// The forwarding node recomputes the hash before caching or relaying a
// peer response; a mismatch means the wire (or the peer) corrupted the
// payload, and the response is discarded as a transient peer failure
// instead of being served as a wrong answer.
const DigestHeader = "X-Gapd-Result-Digest"

// A result response's body is the result's stored bytes, identical for
// every response to one content address; what differs between responses
// travels in these headers instead.
const (
	// ServedByHeader names the path that produced the answer on the node
	// that sent it: ram, cas, repair, join, compute, or forward (see
	// jobs.Provenance).
	ServedByHeader = "X-Gapd-Served-By"
	// ElapsedHeader is the wall-clock milliseconds the sending node
	// spent on the request.
	ElapsedHeader = "X-Gapd-Elapsed-Ms"
)

// DeadlineHeader carries the caller's absolute deadline (RFC3339Nano)
// across a forward hop. Each hop shrinks it by the configured margin
// before re-forwarding, and the receiving node enforces it at admission
// — so a forwarded job can never outlive the client that asked for it.
const DeadlineHeader = "X-Gapd-Deadline"

// ErrCorruptReply marks a peer response rejected by integrity checking:
// body bytes that do not hash to the carried digest, or a payload whose
// content address is not the one the forwarder asked for. It wraps
// jobs.ErrPeerUnavailable, so corruption is handled exactly like an
// unreachable peer — retry the next node in rendezvous order — never
// cached, never relayed.
var ErrCorruptReply = fmt.Errorf("cluster: corrupt peer reply: %w", jobs.ErrPeerUnavailable)

// PeerError is a failed peer request, carrying the peer, the HTTP
// status (0 for transport failures), and a wrapped marker from the
// jobs failure taxonomy so callers can errors.Is their way to a verdict:
// jobs.ErrSpec means the peer ran the job and the job itself is invalid
// (relay, do not retry elsewhere — determinism makes the verdict exact
// on every node); jobs.ErrPeerUnavailable means the peer could not
// answer (try the next node in rendezvous order, or compute locally).
type PeerError struct {
	Peer   string
	Status int
	Msg    string
	err    error
}

func (e *PeerError) Error() string {
	if e.Status == 0 {
		return fmt.Sprintf("cluster: peer %s: %s", e.Peer, e.Msg)
	}
	return fmt.Sprintf("cluster: peer %s answered %d: %s", e.Peer, e.Status, e.Msg)
}

func (e *PeerError) Unwrap() error { return e.err }

// peerUnavailable builds the availability-class PeerError.
func peerUnavailable(peer string, status int, msg string) *PeerError {
	return &PeerError{Peer: peer, Status: status, Msg: msg, err: jobs.ErrPeerUnavailable}
}

// bodyDigest is the hex SHA-256 the digest header carries.
func bodyDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// decodePeerResponse turns one peer reply (status, digest header, raw
// body) into the peer's stored bytes, to be relayed verbatim under the
// peer's digest, or a taxonomy-classified error. It is a pure function
// of its inputs — the fuzz target FuzzPeerResponseDecode drives it
// directly. Verification order: the digest first (nothing from a
// corrupt body is trusted, not even its error envelope), then the
// status-code mapping, then the body's decoded id against expectID
// (when non-empty), so a confused peer cannot answer with the wrong
// job's result. Only the id is decoded; nothing is re-encoded.
func decodePeerResponse(peer string, status int, digest string, body []byte, expectID string) (*jobs.Stored, error) {
	if digest != "" && bodyDigest(body) != digest {
		return nil, &PeerError{Peer: peer, Status: status,
			Msg: "response bytes do not match their digest", err: ErrCorruptReply}
	}
	if status != http.StatusOK {
		msg := http.StatusText(status)
		var envelope struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &envelope) == nil && envelope.Error != "" {
			msg = envelope.Error
		}
		if status == http.StatusBadRequest {
			// The peer ran the spec and rejected it; every node would —
			// evaluation is deterministic — so the verdict is terminal.
			return nil, &PeerError{Peer: peer, Status: status, Msg: msg, err: jobs.ErrSpec}
		}
		// 429 (peer shedding), 5xx (internal error, peer-side timeout,
		// draining): the peer cannot answer this request now.
		// Availability beats affinity — the caller moves down the
		// rendezvous order or computes locally.
		return nil, peerUnavailable(peer, status, msg)
	}
	st, err := jobs.FromBytes(body, digest, expectID)
	if err != nil {
		return nil, &PeerError{Peer: peer, Status: status,
			Msg: "unusable response: " + err.Error(), err: ErrCorruptReply}
	}
	return st, nil
}

// setDeadlineHeader stamps ctx's deadline, shrunk by the per-hop
// margin, onto the outgoing request. The shrink reserves budget for
// this hop's own marshalling and wire time, so the downstream node's
// view of "time left" is never more optimistic than the caller's.
func (c *Cluster) setDeadlineHeader(ctx context.Context, req *http.Request) {
	dl, ok := ctx.Deadline()
	if !ok {
		return
	}
	req.Header.Set(DeadlineHeader, dl.Add(-c.deadlineMargin).UTC().Format(time.RFC3339Nano))
}

// doRequest proxies one spec to one peer and maps the outcome onto the
// jobs error taxonomy, verifying the response digest and content
// address before trusting the payload.
func (c *Cluster) doRequest(ctx context.Context, p Peer, path string, body []byte, expectID string) (*jobs.Stored, error) {
	rctx, cancel := context.WithTimeout(ctx, c.reqTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, p.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, peerUnavailable(p.ID, 0, err.Error())
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedHeader, c.self)
	c.setDeadlineHeader(rctx, req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, peerUnavailable(p.ID, 0, err.Error())
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerResponse))
	if err != nil {
		return nil, peerUnavailable(p.ID, 0, "reading response: "+err.Error())
	}
	res, derr := decodePeerResponse(p.ID, resp.StatusCode, resp.Header.Get(DigestHeader), raw, expectID)
	if errors.Is(derr, ErrCorruptReply) {
		c.metrics.DigestRejected.Add(1)
	}
	return res, derr
}

// Forward proxies the spec to the route's targets with hedged reads:
// the acting owner is asked first; if it sits unanswered past
// HedgeAfter, the next node in rendezvous order is raced against it and
// the first success wins — exact, because evaluation is deterministic
// and content-addressed, so any node computes byte-identical results.
// The moment a winner returns, every outstanding leg's context is
// canceled, so losing hedges release their peer-client pool slots
// immediately instead of running to completion. A target that fails
// with an availability error is replaced by the next one immediately
// (no hedge wait). Terminal verdicts (the peer ran the job and the spec
// itself is bad) are returned as-is. When the request's remaining
// deadline budget is smaller than the hedge threshold, hedging is
// disabled for the request — a hedge that cannot finish before the
// caller's deadline is pure load. When every target is unavailable, the
// first availability error is returned wrapping jobs.ErrPeerUnavailable
// — the caller's cue to compute locally.
func (c *Cluster) Forward(ctx context.Context, path string, spec jobs.Spec, rt Route) (*jobs.Stored, error) {
	if len(rt.Targets) == 0 {
		return nil, peerUnavailable(rt.Owner, 0, "no usable peer")
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("cluster: marshal spec: %w", err)
	}
	expectID := spec.Hash()
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel() // the winner cancels every straggler

	type attempt struct {
		peer Peer
		res  *jobs.Stored
		err  error
	}
	out := make(chan attempt, len(rt.Targets))
	next := 0
	launch := func() {
		p := rt.Targets[next]
		next++
		go func() {
			res, err := c.doRequest(raceCtx, p, path, body, expectID)
			out <- attempt{p, res, err}
		}()
	}
	launch()

	hedge := time.NewTimer(c.hedgeDelay(ctx))
	defer hedge.Stop()
	outstanding := 1
	var firstErr error
	for {
		select {
		case a := <-out:
			outstanding--
			if a.err == nil {
				// Cancel the losing legs before anything else: a hedge
				// that lost the race must stop consuming a peer's worker
				// and this node's connection-pool slot right now, not
				// when the caller eventually returns.
				cancel()
				c.reportSuccess(a.peer.ID)
				return a.res, nil
			}
			if errors.Is(a.err, jobs.ErrSpec) {
				cancel()
				return nil, a.err
			}
			if raceCtx.Err() == nil {
				// A real peer failure, not a canceled straggler.
				c.reportFailure(a.peer.ID)
				c.metrics.ForwardErrors.Add(1)
			}
			if firstErr == nil {
				firstErr = a.err
			}
			if next < len(rt.Targets) {
				launch()
				outstanding++
			} else if outstanding == 0 {
				return nil, firstErr
			}
		case <-hedge.C:
			if next < len(rt.Targets) {
				c.metrics.Hedged.Add(1)
				launch()
				outstanding++
				hedge.Reset(c.hedgeDelay(ctx))
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// neverHedge is the effective threshold when hedging is off for a
// request: far enough out that the timer cannot fire.
const neverHedge = 365 * 24 * time.Hour

// hedgeDelay returns the hedge threshold for one request: the
// configured HedgeAfter, except when hedging is disabled outright
// (negative HedgeAfter) or the request's remaining deadline budget is
// already smaller than the threshold — a hedge launched then could
// never answer before the caller's deadline, so it is suppressed (and
// counted).
func (c *Cluster) hedgeDelay(ctx context.Context) time.Duration {
	if c.hedgeAfter < 0 {
		return neverHedge
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < c.hedgeAfter {
		c.metrics.HedgesSuppressed.Add(1)
		return neverHedge
	}
	return c.hedgeAfter
}
