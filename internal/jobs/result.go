package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
)

// Result is the one envelope every evaluation produces, whether it ran
// through the HTTP service or a CLI's -json flag. It holds only the
// deterministic content of a content address — id, canonical spec, and
// payload — so its encoding is a pure function of the address. Exactly
// one payload field is set, matching Kind. Results are immutable once
// published: the cache and concurrent readers share them.
//
// Facts about one particular response (which tier served it, how long
// it ran) are not part of the result; gapd sends them as response
// headers (see cluster.ServedByHeader).
type Result struct {
	// ID is the content address (Spec.Hash) of the canonical spec.
	ID   string `json:"id"`
	Kind Kind   `json:"kind"`
	// Spec is the canonical spec that produced the payload.
	Spec Spec `json:"spec"`

	Evaluation *core.Evaluation  `json:"evaluation,omitempty"`
	Ladder     *core.Ladder      `json:"ladder,omitempty"`
	Sweep      []core.DepthPoint `json:"sweep,omitempty"`

	// Tables carries named scalar results for CLI-only kinds (e.g.
	// procvar Monte Carlo summaries) that have no structured payload.
	Tables map[string]float64 `json:"tables,omitempty"`
}

// Normalized returns the deterministic content of r, the value whose
// compact JSON is the result's stored bytes. A Result carries nothing
// else, so that is r itself; two runs of the same spec — serial or
// parallel, fresh or recovered — encode byte-identically.
func (r *Result) Normalized() *Result { return r }

// Stored is a published result together with its stored bytes: the
// compact JSON encoding that is its body in the CAS, in replica pushes,
// in every HTTP response, and on a CLI's -json output, plus the SHA-256
// of those bytes (the X-Gapd-Result-Digest). A Stored is built once,
// when the result is first published, and is immutable afterwards;
// serving it is a write of Body, never an encode or a hash.
type Stored struct {
	// ID is the content address.
	ID string
	// Body is the compact JSON of the result.
	Body []byte
	// Digest is the hex SHA-256 of Body.
	Digest string

	// res is the decoded result: set at encode time, or decoded from
	// Body on first use for entries that arrived as bytes (a CAS read, a
	// forwarded or fetched peer reply).
	res atomic.Pointer[Result]
}

// Encode builds the stored form of res: its bytes and their digest.
func Encode(res *Result) (*Stored, error) {
	body, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("jobs: encode result %.12s: %w", res.ID, err)
	}
	sum := sha256.Sum256(body)
	st := &Stored{ID: res.ID, Body: body, Digest: hex.EncodeToString(sum[:])}
	st.res.Store(res)
	return st, nil
}

// FromBytes wraps bytes that are already some result's stored form —
// a verified CAS record or a digest-checked peer reply — without
// re-encoding them. Only the id member is decoded; it must equal
// expectID when expectID is non-empty, and a body that fails either
// check wraps ErrBadReplica. An empty digest is computed from body.
func FromBytes(body []byte, digest, expectID string) (*Stored, error) {
	var head struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &head); err != nil {
		return nil, fmt.Errorf("%w: stored body does not decode: %v", ErrBadReplica, err)
	}
	if expectID != "" && head.ID != expectID {
		return nil, fmt.Errorf("%w: stored body is for %.12s, expected %.12s", ErrBadReplica, head.ID, expectID)
	}
	if digest == "" {
		sum := sha256.Sum256(body)
		digest = hex.EncodeToString(sum[:])
	}
	return &Stored{ID: head.ID, Body: body, Digest: digest}, nil
}

// Result returns the decoded result, decoding Body on first use.
func (s *Stored) Result() (*Result, error) {
	if res := s.res.Load(); res != nil {
		return res, nil
	}
	var res Result
	if err := json.Unmarshal(s.Body, &res); err != nil {
		return nil, fmt.Errorf("jobs: stored body %.12s does not decode: %w", s.ID, err)
	}
	s.res.Store(&res)
	return &res, nil
}
