package cluster_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/serve"
)

// rawAnswer is one result response as a client sees it.
type rawAnswer struct {
	body   []byte
	digest string
	by     jobs.Provenance
}

// postRaw POSTs spec to nd and returns the raw answer.
func postRaw(t *testing.T, nd *node, spec jobs.Spec) rawAnswer {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(nd.srv.URL+"/v1/"+string(spec.Kind), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return readAnswer(t, resp)
}

func readAnswer(t *testing.T, resp *http.Response) rawAnswer {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	return rawAnswer{raw, resp.Header.Get(cluster.DigestHeader), jobs.Provenance(resp.Header.Get(cluster.ServedByHeader))}
}

// TestForwardedAnswerIsOwnersBytes: the entry node relays the owner's
// stored bytes verbatim under the owner's digest, so a forwarded answer,
// the owner's own RAM hit and its GET /v1/results/{id} are the same
// bytes — and each is stamped with the path that produced it.
func TestForwardedAnswerIsOwnersBytes(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	spec := clusterBatch(11)[0]
	owner := byID(t, nodes, nodes[0].clu.Ring().Owner(spec.Hash()))
	entry := otherThan(nodes, owner)

	fwd := postRaw(t, entry, spec)
	if fwd.by != jobs.ServedForward {
		t.Errorf("entry node answer served by %q, want forward", fwd.by)
	}
	sum := sha256.Sum256(fwd.body)
	if fwd.digest != hex.EncodeToString(sum[:]) {
		t.Fatal("forwarded digest does not hash the forwarded body")
	}
	local := postRaw(t, owner, spec)
	if local.by != jobs.ServedRAM {
		t.Errorf("owner answer served by %q, want ram", local.by)
	}
	resp, err := http.Get(owner.srv.URL + cluster.ResultsPath + "/" + spec.Hash())
	if err != nil {
		t.Fatal(err)
	}
	stored := readAnswer(t, resp)
	for name, a := range map[string]rawAnswer{"owner RAM hit": local, "GET /v1/results": stored} {
		if !bytes.Equal(a.body, fwd.body) || a.digest != fwd.digest {
			t.Errorf("%s differs from the forwarded answer", name)
		}
	}
	if entry.pool.Metrics().CacheHits.Load()+entry.pool.Metrics().CacheMisses.Load() != 0 {
		t.Error("entry node looked the forwarded spec up in its own tiers")
	}
}

// TestReplicationOnlyForCompute: the completion-time replica push fires
// for the request that computed a result and for no other answer — a
// RAM hit, a join or a forwarded answer was already replicated when it
// was computed.
func TestReplicationOnlyForCompute(t *testing.T) {
	nodes := startCluster(t, 3, func(o *cluster.Options) { o.Replicas = 2 })
	spec := clusterBatch(13)[0]
	owner := byID(t, nodes, nodes[0].clu.Ring().Owner(spec.Hash()))
	entry := otherThan(nodes, owner)
	quiesce := func() {
		for _, nd := range nodes {
			nd.mu.Lock()
			h := nd.inner.(*serve.Handler)
			nd.mu.Unlock()
			h.Quiesce()
		}
	}
	puts := func() (n int64) {
		for _, nd := range nodes {
			n += nd.puts.Load()
		}
		return n
	}

	if a := postRaw(t, owner, spec); a.by != jobs.ServedCompute {
		t.Fatalf("first answer served by %q, want compute", a.by)
	}
	quiesce()
	if got := puts(); got != 1 {
		t.Fatalf("compute pushed %d replicas, want 1 (replication factor 2)", got)
	}
	if a := postRaw(t, owner, spec); a.by != jobs.ServedRAM {
		t.Errorf("owner answer served by %q, want ram", a.by)
	}
	if a := postRaw(t, entry, spec); a.by != jobs.ServedForward {
		t.Errorf("entry answer served by %q, want forward", a.by)
	}
	quiesce()
	if got := puts(); got != 1 {
		t.Errorf("replica pushes = %d after a RAM hit and a forward, want still 1", got)
	}
}
