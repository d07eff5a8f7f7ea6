package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/loadgen"
)

// goldenLadder is the reference ladder, datapath 16x4 seed 1, and
// goldenSteps its paper-facing step multipliers.
var (
	goldenLadder = jobs.Spec{Kind: jobs.KindLadder, Design: jobs.DesignSpec{Name: "datapath", Width: 16, Depth: 4}, Seed: 1}
	goldenSteps  = []string{"2.720566", "1.395243", "1.859304", "1.259104", "2.458499"}
)

// goldenSpecs is gapload's seed-42 mixed corpus (48 specs), the 28
// cold-stream templates at evaluation seeds 1 and 2, and the reference
// ladder last.
func goldenSpecs() ([]jobs.Spec, error) {
	specs, err := mixedSpecs()
	if err != nil {
		return nil, err
	}
	mixed, ladder := specs[:len(specs)-1], specs[len(specs)-1]
	for _, seed := range []int64{1, 2} {
		cold, err := coldTemplates(seed)
		if err != nil {
			return nil, err
		}
		mixed = append(mixed, cold...)
	}
	return append(mixed, ladder), nil
}

// mixedSpecs is gapload's seed-42 mixed corpus (48 specs) plus the
// reference ladder last.
func mixedSpecs() ([]jobs.Spec, error) {
	corpus, err := loadgen.BuildCorpus(loadgen.CorpusSpec{Family: "mixed", Size: 48, Seed: 42})
	if err != nil {
		return nil, err
	}
	specs := make([]jobs.Spec, 0, len(corpus.Items)+1)
	for _, it := range corpus.Items {
		specs = append(specs, it.Spec)
	}
	return append(specs, goldenLadder), nil
}

// coldTemplates returns what gapbench's cold-durable stream evaluates:
// the 28 specs of gapload's adders and muxpaths corpora at corpus seed
// 42, with the evaluation seed set to seed.
func coldTemplates(seed int64) ([]jobs.Spec, error) {
	var specs []jobs.Spec
	for _, fam := range []string{"adders", "muxpaths"} {
		c, err := loadgen.BuildCorpus(loadgen.CorpusSpec{Family: fam, Seed: 42})
		if err != nil {
			return nil, err
		}
		for _, it := range c.Items {
			s := it.Spec
			s.Seed = seed
			specs = append(specs, s)
		}
	}
	return specs, nil
}

// readGolden loads testdata/golden_digests.txt: content address ->
// SHA-256 of its stored bytes.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/golden_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("golden line %q: want <id> <digest>", line)
		}
		want[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// post sends one spec to h and returns the recorded response.
func post(h http.Handler, spec jobs.Spec) *httptest.ResponseRecorder {
	body, _ := json.Marshal(spec)
	req := httptest.NewRequest(http.MethodPost, "/v1/"+string(spec.Kind), bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenDigests is the answer lock: every spec of gapload's seed-42
// mixed corpus, every cold-stream template at evaluation seeds 1 and 2,
// and the reference ladder must answer with exactly the
// committed SHA-256 — as the hash of the HTTP body, as the
// X-Gapd-Result-Digest header, and as the CAS record's digest — so no
// performance or simplification change can silently move a
// paper-facing number. The ladder's step multipliers are checked too.
func TestGoldenDigests(t *testing.T) {
	want := readGolden(t)
	store, err := cas.Open(cas.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	h := NewHandler(Options{Pool: jobs.NewPool(jobs.Options{Workers: 2, Store: store})})

	specs, err := goldenSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(want) {
		t.Fatalf("%d golden specs, %d golden digests", len(specs), len(want))
	}
	recs := make([]*httptest.ResponseRecorder, len(specs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				recs[i] = post(h, specs[i])
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()

	for i, spec := range specs {
		id, rec := spec.Hash(), recs[i]
		golden, ok := want[id]
		if !ok {
			t.Fatalf("spec %d (%s) %.12s has no golden digest", i, spec.Kind, id)
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("spec %d (%s): status %d: %s", i, spec.Kind, rec.Code, rec.Body)
		}
		if got := sha256Hex(rec.Body.Bytes()); got != golden {
			t.Errorf("spec %d (%s) %.12s: body digest %.12s, golden %.12s", i, spec.Kind, id, got, golden)
		}
		if got := rec.Header().Get(cluster.DigestHeader); got != golden {
			t.Errorf("spec %d (%s) %.12s: %s %.12s, golden %.12s", i, spec.Kind, id, cluster.DigestHeader, got, golden)
		}
		r, err := store.GetRecord(id)
		if err != nil {
			t.Fatalf("spec %d: CAS record: %v", i, err)
		}
		if got := hex.EncodeToString(r.Digest[:]); got != golden || !bytes.Equal(r.Body, rec.Body.Bytes()) {
			t.Errorf("spec %d (%s) %.12s: CAS record digest %.12s, golden %.12s", i, spec.Kind, id, got, golden)
		}
	}

	var lad jobs.Result
	if err := json.Unmarshal(recs[len(recs)-1].Body.Bytes(), &lad); err != nil {
		t.Fatal(err)
	}
	if lad.Ladder == nil || len(lad.Ladder.Steps) != len(goldenSteps) {
		t.Fatalf("reference ladder: %+v", lad.Ladder)
	}
	for i, s := range lad.Ladder.Steps {
		if got := fmt.Sprintf("%.6f", s.Mult); got != goldenSteps[i] {
			t.Errorf("reference ladder step %s: x%s, want x%s", s.Name, got, goldenSteps[i])
		}
	}
}

// TestAnswersAreStoredBytes: a compute, a RAM hit, a CAS hit (a fresh
// node on the same store), GET /v1/results/{id} and the CLI's
// jobs.RunService all return the same bytes under the same digest, and
// every answer carries the provenance of the path that produced it.
func TestAnswersAreStoredBytes(t *testing.T) {
	spec := jobs.Spec{Kind: jobs.KindEvaluate, Design: jobs.DesignSpec{Name: "datapath", Width: 8, Depth: 2}, Seed: 5}
	dir := t.TempDir()
	store, err := cas.Open(cas.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(Options{Pool: jobs.NewPool(jobs.Options{Workers: 2, Store: store})})

	type answer struct {
		by     string
		body   []byte
		digest string
	}
	get := func(rec *httptest.ResponseRecorder) answer {
		t.Helper()
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if rec.Header().Get(cluster.ElapsedHeader) == "" {
			t.Errorf("answer without %s", cluster.ElapsedHeader)
		}
		return answer{rec.Header().Get(cluster.ServedByHeader), rec.Body.Bytes(), rec.Header().Get(cluster.DigestHeader)}
	}
	computed := get(post(h, spec))
	if computed.by != "compute" {
		t.Errorf("first answer served by %q, want compute", computed.by)
	}
	if computed.digest != sha256Hex(computed.body) {
		t.Fatal("digest header does not hash the body")
	}
	ram := get(post(h, spec))
	if ram.by != "ram" {
		t.Errorf("second answer served by %q, want ram", ram.by)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/results/"+spec.Hash(), nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	results := answer{body: rec.Body.Bytes(), digest: rec.Header().Get(cluster.DigestHeader)}

	store.Close()
	store2, err := cas.Open(cas.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	casHit := get(post(NewHandler(Options{Pool: jobs.NewPool(jobs.Options{Workers: 2, Store: store2})}), spec))
	if casHit.by != "cas" {
		t.Errorf("restarted node served by %q, want cas", casHit.by)
	}

	cli, err := jobs.RunService(context.Background(), spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]answer{"ram": ram, "GET /v1/results": results, "cas": casHit,
		"RunService": {body: cli.Body, digest: cli.Digest}} {
		if !bytes.Equal(a.body, computed.body) || a.digest != computed.digest {
			t.Errorf("%s answer differs from the computed bytes", name)
		}
	}
}

// TestJoinStampsJoin: a request that arrives while an identical compute
// is in flight waits for it and is stamped join, and gets the computed
// bytes.
func TestJoinStampsJoin(t *testing.T) {
	spec := jobs.Spec{Kind: jobs.KindEvaluate, Design: jobs.DesignSpec{Name: "datapath", Width: 8, Depth: 2}, Seed: 9}
	// Every pool attempt sleeps 300ms at its seam, holding the compute in
	// flight long enough for the second request to find it there.
	inj := faultinject.New(faultinject.Plan{LatencyRate: 1, Latency: 300 * time.Millisecond, Match: "pool/"})
	pool := jobs.NewPool(jobs.Options{Workers: 2, Injector: inj})
	h := NewHandler(Options{Pool: pool})

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- post(h, spec) }()
	for deadline := time.Now().Add(5 * time.Second); pool.InFlight() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("compute never went in flight")
		}
	}
	joined := post(h, spec)
	computed := <-first
	for _, c := range []struct {
		rec *httptest.ResponseRecorder
		by  string
	}{{computed, "compute"}, {joined, "join"}} {
		if c.rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", c.rec.Code, c.rec.Body)
		}
		if by := c.rec.Header().Get(cluster.ServedByHeader); by != c.by {
			t.Errorf("served by %q, want %s", by, c.by)
		}
	}
	if !bytes.Equal(joined.Body.Bytes(), computed.Body.Bytes()) {
		t.Error("joined answer differs from the computed bytes")
	}
	if n := pool.Metrics().JobsStarted.Load(); n != 1 {
		t.Errorf("jobs started %d, want 1", n)
	}
}

// goldenResults computes the mixed corpus and the reference ladder once
// per test binary: the request-path benchmarks need them warm, not
// computed.
var goldenResults = sync.OnceValues(func() ([]*jobs.Result, error) {
	specs, err := mixedSpecs()
	if err != nil {
		return nil, err
	}
	out := make([]*jobs.Result, len(specs))
	for i, s := range specs {
		res, err := jobs.Run(context.Background(), s, 2)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
})

// BenchmarkRequestPath measures one POST through Handler.ServeHTTP per
// op. Three paths serve a finished result of the mixed corpus and the
// reference ladder: a RAM hit, a CAS hit (RAM cache off), and a request
// forwarded by an entry node to the owning peer, which answers from its
// RAM cache. The fourth, cold-evaluate, computes: every op is a cold
// template on an evaluation seed no other op uses, so it pays the RAM
// and CAS misses, the whole evaluate flow, the encode and the CAS put.
func BenchmarkRequestPath(b *testing.B) {
	results, err := goldenResults()
	if err != nil {
		b.Fatal(err)
	}
	warm := func(b *testing.B, opt jobs.Options) *jobs.Pool {
		p := jobs.NewPool(opt)
		for _, res := range results {
			if _, err := p.StoreResult(res); err != nil {
				b.Fatal(err)
			}
		}
		return p
	}
	run := func(b *testing.B, h http.Handler, specs []jobs.Spec) {
		bodies := make([][]byte, len(specs))
		for i, s := range specs {
			bodies[i], _ = json.Marshal(s)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(specs)
			req := httptest.NewRequest(http.MethodPost, "/v1/"+string(specs[k].Kind), bytes.NewReader(bodies[k]))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
	}
	specs := make([]jobs.Spec, len(results))
	for i, res := range results {
		specs[i] = res.Spec
	}

	b.Run("ram-hit", func(b *testing.B) {
		run(b, NewHandler(Options{Pool: warm(b, jobs.Options{Workers: 2})}), specs)
	})
	b.Run("cas-hit", func(b *testing.B) {
		store, err := cas.Open(cas.Options{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		defer store.Close()
		warm(b, jobs.Options{Workers: 2, Store: store})
		run(b, NewHandler(Options{Pool: jobs.NewPool(jobs.Options{Workers: 2, CacheEntries: -1, Store: store})}), specs)
	})
	b.Run("forwarded", func(b *testing.B) {
		owner := httptest.NewServer(NewHandler(Options{Pool: warm(b, jobs.Options{Workers: 2})}))
		defer owner.Close()
		peers := []cluster.Peer{{ID: "entry", URL: "http://entry.invalid"}, {ID: "owner", URL: owner.URL}}
		cl, err := cluster.New(cluster.Options{
			SelfID: "entry", Peers: peers, HedgeAfter: -1,
			RequestTimeout: 30 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		var owned []jobs.Spec
		for _, s := range specs {
			if cl.Ring().Owner(s.Hash()) == "owner" {
				owned = append(owned, s)
			}
		}
		if len(owned) == 0 {
			b.Fatal("no golden spec is owned by the peer")
		}
		run(b, NewHandler(Options{Pool: jobs.NewPool(jobs.Options{Workers: 2}), Cluster: cl}), owned)
	})
	b.Run("cold-evaluate", func(b *testing.B) {
		templates, err := coldTemplates(0)
		if err != nil {
			b.Fatal(err)
		}
		store, err := cas.Open(cas.Options{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		defer store.Close()
		cold := make([]jobs.Spec, b.N)
		for i := range cold {
			cold[i] = templates[i%len(templates)]
			cold[i].Seed = int64(i) + 1
		}
		run(b, NewHandler(Options{Pool: jobs.NewPool(jobs.Options{Workers: 2, Store: store})}), cold)
	})
}
