package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/jobs"
)

// The reference ladder: datapath 16x4, seed 1. Its five step multipliers
// are the paper-facing numbers every build must reproduce to 6 decimals.
var (
	ladderSpec  = jobs.Spec{Kind: jobs.KindLadder, Design: jobs.DesignSpec{Name: "datapath", Width: 16, Depth: 4}, Seed: 1}
	ladderSteps = []string{"2.720566", "1.395243", "1.859304", "1.259104", "2.458499"}
)

// gateSample is how many window requests the gate re-checks on the cold
// stream, where every request is a distinct spec.
const gateSample = 64

// references holds the in-process answers the gate compares gapd's
// against: the normalized result JSON of jobs.Run per content address.
// Each spec is computed at most once per invocation.
type references struct {
	mu   sync.Mutex
	body map[string][]byte
}

func newReferences() *references { return &references{body: map[string][]byte{}} }

// get returns the reference bodies for reqs, computing the missing ones
// two at a time.
func (rf *references) get(ctx context.Context, reqs []*request) (map[string][]byte, error) {
	var todo []*request
	rf.mu.Lock()
	for _, r := range reqs {
		if _, ok := rf.body[r.hash]; !ok {
			todo = append(todo, r)
		}
	}
	rf.mu.Unlock()
	errs := make([]error, len(todo))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, r := range todo {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, r *request) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := jobs.Run(ctx, r.spec, 1)
			if err != nil {
				errs[i] = fmt.Errorf("reference %.12s: %w", r.hash, err)
				return
			}
			b, err := json.Marshal(res.Normalized())
			if err != nil {
				errs[i] = err
				return
			}
			rf.mu.Lock()
			rf.body[r.hash] = b
			rf.mu.Unlock()
		}(i, r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make(map[string][]byte, len(reqs))
	rf.mu.Lock()
	for _, r := range reqs {
		out[r.hash] = rf.body[r.hash]
	}
	rf.mu.Unlock()
	return out, nil
}

// gateRequests picks what the gate re-requests after a window: every
// distinct spec the window used, or on the cold stream a seeded sample
// of gateSample of them.
func gateRequests(w *window, next stream, cold bool, seed int64) []*request {
	seen := map[string]bool{}
	var out []*request
	for _, s := range w.samples {
		r := next(s.req)
		if !seen[r.hash] {
			seen[r.hash] = true
			out = append(out, r)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].hash < out[b].hash })
	if cold && len(out) > gateSample {
		rand.New(rand.NewSource(seed)).Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
		out = out[:gateSample]
	}
	return out
}

// gate re-requests reqs and the reference ladder from base and checks
// each answer: the X-Gapd-Result-Digest header must be the SHA-256 of
// the body, and the body must decode as a jobs.Result whose normalized
// JSON equals the in-process reference. Per-response fields (cached,
// attempts, elapsed_ms, service) are never read. It returns the
// normalized results of reqs by content address; the ladder is only
// checked.
func gate(ctx context.Context, client *http.Client, base string, reqs []*request, refs *references) (map[string][]byte, error) {
	ladder, err := newRequest(ladderSpec)
	if err != nil {
		return nil, err
	}
	all := append(append([]*request(nil), reqs...), ladder)
	want, err := refs.get(ctx, all)
	if err != nil {
		return nil, err
	}
	got := make(map[string][]byte, len(all))
	for _, r := range all {
		res, norm, err := fetchResult(ctx, client, base, r)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(norm, want[r.hash]) {
			return nil, fmt.Errorf("%s %.12s: answer differs from the in-process reference", r.path, r.hash)
		}
		if r == ladder {
			if err := checkLadder(res); err != nil {
				return nil, err
			}
			continue
		}
		got[r.hash] = norm
	}
	return got, nil
}

// fetchResult POSTs r and returns the verified result and its normalized
// JSON.
func fetchResult(ctx context.Context, client *http.Client, base string, r *request) (*jobs.Result, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("%s %.12s: %w", r.path, r.hash, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("%s %.12s: read body: %w", r.path, r.hash, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("%s %.12s: status %d", r.path, r.hash, resp.StatusCode)
	}
	if d := resp.Header.Get(cluster.DigestHeader); d != sha256Hex(body) {
		return nil, nil, fmt.Errorf("%s %.12s: %s %q is not the SHA-256 of the body", r.path, r.hash, cluster.DigestHeader, d)
	}
	var res jobs.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, nil, fmt.Errorf("%s %.12s: body is not a jobs.Result: %w", r.path, r.hash, err)
	}
	norm, err := json.Marshal(res.Normalized())
	if err != nil {
		return nil, nil, err
	}
	return &res, norm, nil
}

func checkLadder(res *jobs.Result) error {
	if res.Ladder == nil || len(res.Ladder.Steps) != len(ladderSteps) {
		return fmt.Errorf("reference ladder: want %d steps", len(ladderSteps))
	}
	for i, s := range res.Ladder.Steps {
		if got := fmt.Sprintf("%.6f", s.Mult); got != ladderSteps[i] {
			return fmt.Errorf("reference ladder step %s: x%s, want x%s", s.Name, got, ladderSteps[i])
		}
	}
	return nil
}
