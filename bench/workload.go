package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/loadgen"
)

// Load model: one process generates all load as a closed loop of two
// callers on two keep-alive connections, matching the two cores of the
// reference machine, and every gapd runs two workers.
const (
	clients = 2
	workers = 2
)

// Pinned inputs. The corpus seed is fixed, so these digests change only
// when corpus generation or spec canonicalization changes — and then the
// benchmark refuses to run rather than measure different work under the
// same name.
const (
	corpusSeed = 42
	// SHA-256 of loadgen.BuildCorpus({mixed, 48, seed 42}).Canonical().
	mixedCorpusSHA = "bab40344010614bca4acedda50536795378cc4cfab020958897f6d4cce1d151c"
	// SHA-256 of the newline-terminated spec hashes of the 28 cold-stream
	// templates (the adders and muxpaths families, evaluation seed 0).
	coldTemplatesSHA = "3c03ce9eba766fd8e4dc09f37e2c5f9ba5d40c6c0252ac7f1b7f9894b4aaf9ad"
)

// workload is one gapd deployment and the request stream driven at it.
type workload struct {
	name    string
	nodes   int
	cold    bool // requests come from the cold stream, not the mixed corpus
	restart bool // the window reads a restarted gapd's store
	// setup boots the deployment and brings it to the state the window
	// measures.
	setup func(ctx context.Context, e *env) (*deployment, error)
}

var workloads = []workload{
	{name: "hot-mixed", nodes: 1, setup: setupHot},
	{name: "cas-restart", nodes: 1, restart: true, setup: setupCASRestart},
	{name: "cold-durable", nodes: 1, cold: true, setup: setupCold},
	{name: "cluster3-mixed", nodes: 3, setup: setupCluster3},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs holds the generated requests of one invocation.
type inputs struct {
	seed      int64
	corpus    []request // the 48 mixed-corpus specs, entry node n1's view
	picks     []int32   // seeded weighted picks over corpus; wraps
	templates []jobs.Spec
	coldPicks []int32
}

// pickLen is the length of the seeded pick sequences. Longer windows
// wrap around it.
const pickLen = 1 << 18

// buildInputs generates the corpus, the cold-stream templates, and the
// seeded pick sequences, refusing to continue if either pinned input has
// changed.
func buildInputs(seed int64) (*inputs, error) {
	plan := loadgen.Plan{
		Seed:    seed,
		Arrival: loadgen.ArrivalSpec{Process: loadgen.ProcClosed, Concurrency: clients, Requests: pickLen},
		Corpus:  loadgen.CorpusSpec{Family: "mixed", Size: 48, Seed: corpusSeed},
	}
	corpus, err := loadgen.BuildCorpus(plan.Corpus)
	if err != nil {
		return nil, err
	}
	canon, err := corpus.Canonical()
	if err != nil {
		return nil, err
	}
	if got := sha256Hex(canon); got != mixedCorpusSHA {
		return nil, fmt.Errorf("pinned input changed: mixed corpus digest %s, want %s", got, mixedCorpusSHA)
	}
	sched, err := loadgen.BuildSchedule(plan, corpus)
	if err != nil {
		return nil, err
	}
	in := &inputs{seed: seed, picks: make([]int32, len(sched.Arrivals))}
	for i, a := range sched.Arrivals {
		in.picks[i] = int32(a.Item)
	}
	ring := cluster.NewRing([]cluster.Peer{{ID: "n1"}, {ID: "n2"}, {ID: "n3"}}, 0)
	for _, it := range corpus.Items {
		r, err := newRequest(it.Spec)
		if err != nil {
			return nil, err
		}
		r.peer = ring.Owner(r.hash) != "n1"
		in.corpus = append(in.corpus, *r)
	}

	var hashes strings.Builder
	for _, fam := range []string{"adders", "muxpaths"} {
		c, err := loadgen.BuildCorpus(loadgen.CorpusSpec{Family: fam, Seed: corpusSeed})
		if err != nil {
			return nil, err
		}
		for _, it := range c.Items {
			t := it.Spec
			t.Seed = 0
			in.templates = append(in.templates, t)
			hashes.WriteString(t.Hash() + "\n")
		}
	}
	if got := sha256Hex([]byte(hashes.String())); got != coldTemplatesSHA {
		return nil, fmt.Errorf("pinned input changed: cold templates digest %s, want %s", got, coldTemplatesSHA)
	}
	// The templates' costs differ by 20×, so the cold stream takes them in
	// seeded permutations of all 28: every window then holds the same mix
	// to within one permutation, whatever the seed.
	r := rand.New(rand.NewSource(seed))
	in.coldPicks = make([]int32, 0, pickLen)
	for len(in.coldPicks) < pickLen {
		for _, k := range r.Perm(len(in.templates)) {
			in.coldPicks = append(in.coldPicks, int32(k))
		}
	}
	return in, nil
}

func newRequest(s jobs.Spec) (*request, error) {
	c, err := s.Canon()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	return &request{path: "/v1/" + string(c.Kind), body: body, spec: c, hash: c.Hash()}, nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// mixed is the stream of seeded weighted picks over the corpus.
func (in *inputs) mixed(i int) *request {
	return &in.corpus[in.picks[i%len(in.picks)]]
}

// cold is the stream of evaluations that are each a new content
// address: request i is one of the 28 templates, taken in seeded
// permutations, with an evaluation seed no other request of the run
// shares.
func (in *inputs) cold(i int) *request {
	s := in.templates[in.coldPicks[i%len(in.coldPicks)]]
	s.Seed = in.seed<<32 + int64(i) + 1
	r, err := newRequest(s)
	if err != nil {
		panic(fmt.Sprintf("cold template %d does not canonicalize: %v", i, err)) // the pinned digest rules this out
	}
	return r
}

// coldWarmBase offsets the set-up's warm-up requests from the window's,
// so no warm-up result can answer a window request.
const coldWarmBase = 1 << 31

func (in *inputs) stream(w workload) stream {
	if w.cold {
		return in.cold
	}
	return in.mixed
}

// env is what a set-up needs.
type env struct {
	bin    string // gapd binary
	dir    string // this set-up's private directory
	in     *inputs
	client *http.Client
}

// deployment is a running set of gapd nodes; nodes[0] is the entry node
// every window request goes to.
type deployment struct {
	nodes []*node
}

func (d *deployment) entry() *node { return d.nodes[0] }

// stop kills every node and waits for each to end. Only the set-up's
// SIGTERM restart needs a graceful stop; teardown does not.
func (d *deployment) stop() {
	for _, n := range d.nodes {
		_ = n.stop(syscall.SIGKILL, 10*time.Second)
	}
}

// boot starts one node per argument list and waits until each answers
// /healthz. On failure every node already started is stopped.
func boot(ctx context.Context, e *env, ids []string, ports []int, args [][]string) (*deployment, error) {
	d := &deployment{}
	for i, id := range ids {
		n, err := startNode(e.bin, id, filepath.Join(e.dir, id+".log"), ports[i], args[i])
		if err != nil {
			d.stop()
			return nil, err
		}
		d.nodes = append(d.nodes, n)
	}
	for _, n := range d.nodes {
		if err := n.waitReady(ctx, e.client); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

func single(ctx context.Context, e *env, args ...string) (*deployment, error) {
	ports, err := freePorts(1)
	if err != nil {
		return nil, err
	}
	return boot(ctx, e, []string{"n1"}, ports, [][]string{append([]string{"-workers", "2"}, args...)})
}

// warm issues every request once, two at a time, and fails on any
// non-200 answer.
func warm(ctx context.Context, e *env, base string, reqs []*request) error {
	var next atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs) && ctx.Err() == nil; i = int(next.Add(1) - 1) {
				if st := post(ctx, e.client, base, reqs[i]); st != http.StatusOK {
					errs[c] = fmt.Errorf("warm-up %s %.12s: status %d", reqs[i].path, reqs[i].hash, st)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

func (in *inputs) corpusRequests() []*request {
	out := make([]*request, len(in.corpus))
	for i := range in.corpus {
		out[i] = &in.corpus[i]
	}
	return out
}

// setupHot boots one gapd with the default 512-entry RAM cache and
// computes each corpus spec once, so every window request is a RAM hit.
func setupHot(ctx context.Context, e *env) (*deployment, error) {
	d, err := single(ctx, e)
	if err != nil {
		return nil, err
	}
	if err := warm(ctx, e, d.entry().url, e.in.corpusRequests()); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// setupCASRestart primes a gapd whose RAM cache holds 8 of the 48 corpus
// results, stops it with SIGTERM, and restarts it on the same store and
// journal: the window then reads mostly from the CAS tier.
func setupCASRestart(ctx context.Context, e *env) (*deployment, error) {
	args := []string{"-cache", "8", "-store-dir", filepath.Join(e.dir, "store"), "-journal", filepath.Join(e.dir, "journal")}
	d, err := single(ctx, e, args...)
	if err != nil {
		return nil, err
	}
	if err := warm(ctx, e, d.entry().url, e.in.corpusRequests()); err != nil {
		d.stop()
		return nil, err
	}
	if err := d.entry().stop(syscall.SIGTERM, 30*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return single(ctx, e, args...)
}

// setupCold boots a durable gapd and warms the process with one
// evaluation per template, on content addresses the window never uses.
func setupCold(ctx context.Context, e *env) (*deployment, error) {
	d, err := single(ctx, e, "-store-dir", filepath.Join(e.dir, "store"), "-journal", filepath.Join(e.dir, "journal"))
	if err != nil {
		return nil, err
	}
	reqs := make([]*request, len(e.in.templates))
	for k := range e.in.templates {
		s := e.in.templates[k]
		s.Seed = e.in.seed<<32 + coldWarmBase + int64(k)
		if reqs[k], err = newRequest(s); err != nil {
			d.stop()
			return nil, err
		}
	}
	if err := warm(ctx, e, d.entry().url, reqs); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// The three nodes and the driver share the reference machine's two
// cores. A node starved for about a second misses the 4 rounds of 250 ms
// it has to refute a suspicion, is declared dead, and the views then may
// not converge again. The set-up boots a fresh cluster when they have not
// converged within convergeWithin, at most clusterBoots times; the time
// of every boot counts in setup_s.
const (
	convergeWithin = 10 * time.Second
	clusterBoots   = 3
)

var errNotConverged = errors.New("gossip views did not converge")

// setupCluster3 boots three gossip nodes, waits until each sees all
// three alive, and warms the corpus through the entry node n1, so each
// result is computed once on its owner.
func setupCluster3(ctx context.Context, e *env) (*deployment, error) {
	for k := 1; ; k++ {
		be := *e
		be.dir = filepath.Join(e.dir, "boot-"+strconv.Itoa(k))
		if err := os.MkdirAll(be.dir, 0o755); err != nil {
			return nil, err
		}
		d, err := bootCluster3(ctx, &be)
		if errors.Is(err, errNotConverged) && k < clusterBoots {
			fmt.Fprintf(os.Stderr, "gapbench: cluster3-mixed: boot %d: %v; booting a fresh cluster\n", k, err)
			continue
		}
		if err != nil {
			return nil, err
		}
		if err := warm(ctx, e, d.entry().url, e.in.corpusRequests()); err != nil {
			d.stop()
			return nil, err
		}
		return d, nil
	}
}

// bootCluster3 starts the three nodes on fresh ports and waits until
// every view holds all three alive.
func bootCluster3(ctx context.Context, e *env) (*deployment, error) {
	ids := []string{"n1", "n2", "n3"}
	ports, err := freePorts(len(ids))
	if err != nil {
		return nil, err
	}
	var seeds []string
	for i, id := range ids {
		seeds = append(seeds, fmt.Sprintf("%s=http://127.0.0.1:%d", id, ports[i]))
	}
	args := make([][]string, len(ids))
	for i, id := range ids {
		args[i] = []string{"-workers", "2", "-node-id", id, "-gossip",
			"-advertise", fmt.Sprintf("http://127.0.0.1:%d", ports[i]),
			"-peers", strings.Join(seeds, ","), "-replicas", "2"}
	}
	d, err := boot(ctx, e, ids, ports, args)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(convergeWithin)
	for _, n := range d.nodes {
		if err := waitMembers(ctx, e.client, n, len(ids), deadline); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// waitMembers polls GET /v1/cluster until the node's gossip view holds
// want alive members, and fails with errNotConverged at the deadline.
func waitMembers(ctx context.Context, client *http.Client, n *node, want int, deadline time.Time) error {
	for {
		var st struct {
			Members []struct {
				State string `json:"state"`
			} `json:"members"`
		}
		if err := getJSON(ctx, client, n.url+"/v1/cluster", &st); err == nil {
			alive := 0
			for _, m := range st.Members {
				if m.State == "alive" {
					alive++
				}
			}
			if alive == want {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: gapd %s does not see %d members alive after %v", errNotConverged, n.id, want, convergeWithin)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func getJSON(ctx context.Context, client *http.Client, url string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// makeDir creates a fresh directory under parent.
func makeDir(parent, name string) (string, error) {
	dir := filepath.Join(parent, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
