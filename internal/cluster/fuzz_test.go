package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"repro/internal/jobs"
)

// FuzzPeerResponseDecode hammers the single function every byte from a
// peer passes through. Whatever the wire delivers — corrupt digests,
// hostile JSON, mismatched content addresses, absurd statuses — the
// decoder must never panic, and its safety invariants must hold:
//
//   - a result is returned only for status 200;
//   - a carried digest that does not match the body can never yield a
//     result (integrity beats parsability);
//   - a returned result's ID always equals the requested content
//     address when one was given;
//   - a returned result is the body verbatim under the body's digest:
//     the relay never re-encodes what the peer sent;
//   - every error is classified: terminal spec verdict, corrupt reply,
//     or peer-unavailable — all of which wrap the jobs taxonomy.
func FuzzPeerResponseDecode(f *testing.F) {
	goodID := "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a"
	good, _ := json.Marshal(&jobs.Result{ID: goodID})
	f.Add(http.StatusOK, "", []byte("{}"), "")
	f.Add(http.StatusOK, bodyDigest(good), good, goodID)
	f.Add(http.StatusOK, bodyDigest([]byte("x")), good, goodID) // digest mismatch
	f.Add(http.StatusBadRequest, "", []byte(`{"error":"bad spec"}`), goodID)
	f.Add(http.StatusServiceUnavailable, "", []byte(`{"error":"node is draining; retry against another node"}`), "")
	f.Add(http.StatusOK, "", []byte(`{"id":"aaaa"}`), goodID) // wrong address
	f.Add(http.StatusOK, "", []byte("not json"), "")
	f.Add(-17, "zzz", []byte{0xff, 0x00}, "id")

	f.Fuzz(func(t *testing.T, status int, digest string, body []byte, expectID string) {
		res, err := decodePeerResponse("fuzz-peer", status, digest, body, expectID)
		if err == nil {
			if res == nil {
				t.Fatal("nil result with nil error")
			}
			if status != http.StatusOK {
				t.Fatalf("result produced from status %d", status)
			}
			if digest != "" && bodyDigest(body) != digest {
				t.Fatal("result produced from a body failing its digest")
			}
			if expectID != "" && res.ID != expectID {
				t.Fatalf("result id %q escaped the expectID %q check", res.ID, expectID)
			}
			if !bytes.Equal(res.Body, body) || res.Digest != bodyDigest(body) {
				t.Fatal("relayed bytes or digest differ from the peer's body")
			}
			return
		}
		if res != nil {
			t.Fatal("non-nil result alongside an error")
		}
		if !errors.Is(err, jobs.ErrSpec) && !errors.Is(err, jobs.ErrPeerUnavailable) {
			t.Fatalf("unclassified peer error: %v", err)
		}
		if digest != "" && bodyDigest(body) != digest && !errors.Is(err, ErrCorruptReply) {
			t.Fatalf("digest mismatch not flagged corrupt: %v", err)
		}
	})
}
