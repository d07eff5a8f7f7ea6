package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/bench/probeio"
)

// stages are the core flow stages gapd times under stage_<name>.
var stages = []string{"synthesize", "presize", "floorplan", "pipeline", "postsize", "domino", "timing", "rate"}

// perLayer are the metrics of single layers, reported by the traced run.
// README.md maps each to the end-to-end metric and workload it should
// move.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"serve.handler_us", "us"},
		{"serve.self_us", "us"},
		{"serve.net_us", "us"},
		{"jobs.canon_us", "us"},
		{"jobs.do_us", "us"},
		{"jobs.tier_ram_us", "us"},
		{"jobs.tier_cas_us", "us"},
		{"jobs.ram_hit_ratio", "fraction"},
		{"jobs.ram_hits", "count"},
		{"jobs.cas_hits", "count"},
		{"jobs.computed", "count"},
		{"jobs.joined", "count"},
		{"jobs.compute_ms", "ms"},
		{"jobs.busy_frac", "fraction"},
		{"jobs.journal_accepted", "count"},
		{"jobs.journal_stored", "count"},
		{"jobs.replay_ms", "ms"},
		{"cas.open_ms", "ms"},
		{"cas.get_us", "us"},
		{"cas.put_us", "us"},
		{"cas.puts", "count"},
		{"cas.live_bytes", "bytes"},
	}
	for _, s := range stages {
		defs = append(defs, metricDef{"core." + s + "_ms", "ms"})
	}
	return append(defs,
		metricDef{"core.evals", "count"},
		metricDef{"cluster.forward_us", "us"},
		metricDef{"cluster.forward_share", "fraction"},
		metricDef{"cluster.hedged", "count"},
		metricDef{"cluster.hedge_waste", "fraction"},
		metricDef{"cluster.fallback", "count"},
		metricDef{"cluster.replicated", "count"},
		metricDef{"cluster.gossip_rounds", "count"},
	)
}()

// probeReplays is how many window requests the layer probes replay.
const probeReplays = 10000

// tracer collects spans and per-layer values for one traced workload.
type tracer struct {
	epoch  time.Time
	spans  []probeio.Span
	values map[string]float64 // a missing key is an absent metric
	open   scrape
	close  scrape
}

func (t *tracer) set(name string, v float64, ok bool) {
	if ok {
		t.values[name] = v
	}
}

// traceWorkload sets the workload up once and measures one window with
// /metrics scrapes around it. Client spans come from the timings every
// window records, so the traced window does the same work as an
// untraced one. It then replays the window's requests through the
// in-process layer probes and checks the workload's accounting. It
// reports the per-layer metrics only.
func traceWorkload(ctx context.Context, o options, w workload, in *inputs, refs *references, dir string) (*result, error) {
	next := in.stream(w)
	tr, err := runPass(ctx, o, w, in, dir, true)
	if err != nil {
		return nil, err
	}
	bodies, gerr := gate(ctx, tr.client, tr.dep.entry().url, gateRequests(tr.win, next, w.cold, o.seed), refs)
	tr.dep.stop()

	ts := tr.win.stats()
	res := &result{attempted: ts.attempted, failed: ts.attempted - ts.completed, defs: perLayer}
	if err := verdict(ts, gerr); err != nil {
		return res, err
	}

	t := &tracer{epoch: tr.win.open, values: map[string]float64{}, open: tr.scrapes[0], close: tr.scrapes[1]}
	t.clientSpans(w, tr.win, next)
	t.counters(tr, w.nodes)
	cluster := w.nodes > 1
	if cluster {
		t.forwarding(tr.win, next)
	}
	if err := t.probe(ctx, o, w, in, refs, tr, bodies); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	if h, ok := t.values["serve.handler_us"]; ok {
		if d, ok := t.values["jobs.do_us"]; ok {
			t.values["serve.self_us"] = h - d
		}
		// On the cluster the entry node serves only the requests it owns
		// itself; the others include the forward hop.
		clientMean := mean(tr.win.latencies(func(s sample) bool { return !cluster || !next(s.req).peer }))
		t.values["serve.net_us"] = us(clientMean) - h
	}
	res.values = t.values

	spanDir := filepath.Join(o.work, "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(spanDir, w.name+".spans.jsonl"), t.spans); err != nil {
		return nil, err
	}
	if err := t.selfCheck(w, ts.completed, tr.win, next); err != nil {
		return res, fmt.Errorf("%w: self-check: %v", errIncorrect, err)
	}
	res.correct = true
	return res, nil
}

// probe hands the window's first requests and its tier state to the
// gapprobe binary and takes back its per-layer values and spans.
func (t *tracer) probe(ctx context.Context, o options, w workload, in *inputs, refs *references, p *pass, bodies map[string][]byte) error {
	pin := probeio.Input{Tier: probeio.TierWarm, Dir: p.dir, Scratch: filepath.Join(p.dir, "probe"), EpochNS: t.epoch.UnixNano()}
	next := in.stream(w)
	for i := 0; i < min(probeReplays, len(p.win.samples)); i++ {
		r := next(i)
		pin.Replays = append(pin.Replays, probeio.Request{Path: r.path, Body: r.body, Hash: r.hash})
	}
	switch {
	case w.restart:
		pin.Tier = probeio.TierRestart
	case w.cold:
		pin.Tier = probeio.TierDurable
		pin.Puts = make(map[string]json.RawMessage, len(bodies))
		for h, b := range bodies {
			pin.Puts[h] = b
		}
	default:
		reqs := in.corpusRequests()
		warm, err := refs.get(ctx, reqs)
		if err != nil {
			return err
		}
		for _, r := range reqs {
			pin.Warm = append(pin.Warm, warm[r.hash])
		}
	}
	b, err := json.Marshal(pin)
	if err != nil {
		return err
	}
	file := filepath.Join(p.dir, "probe.json")
	if err := os.WriteFile(file, b, 0o644); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, o.probe, "-in", file)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s: %w", o.probe, err)
	}
	var out probeio.Output
	if err := json.Unmarshal(stdout, &out); err != nil {
		return fmt.Errorf("%s output: %w", o.probe, err)
	}
	t.spans = append(t.spans, out.Spans...)
	for name, v := range out.Values {
		t.values[name] = v
	}
	return nil
}

// clientSpans records one span per window request.
func (t *tracer) clientSpans(w workload, win *window, next stream) {
	for _, s := range win.samples {
		r := next(s.req)
		sp := probeio.Span{ID: s.req, Layer: "client", Start: s.start, End: s.end, Status: s.status, Kind: string(r.spec.Kind)}
		if w.nodes > 1 {
			sp.Owner = "local"
			if r.peer {
				sp.Owner = "peer"
			}
		}
		t.spans = append(t.spans, sp)
	}
}

// counters derives the per-layer values gapd's /metrics deltas over the
// window give, summed over the nodes.
func (t *tracer) counters(tr *pass, nodes int) {
	for _, c := range []struct {
		name string
		path []string
	}{
		{"jobs.ram_hits", []string{"cache", "hits"}},
		{"jobs.cas_hits", []string{"cas", "hits"}},
		{"jobs.computed", []string{"jobs", "started"}},
		{"jobs.journal_accepted", []string{"journal", "accepted"}},
		{"jobs.journal_stored", []string{"journal", "stored"}},
		{"cas.puts", []string{"cas", "puts"}},
		{"cluster.hedged", []string{"cluster", "cluster_hedged"}},
		{"cluster.fallback", []string{"cluster", "cluster_fallback"}},
		{"cluster.replicated", []string{"cluster", "cluster_replicated"}},
		{"cluster.gossip_rounds", []string{"cluster", "cluster_gossip_rounds"}},
	} {
		v, ok := t.delta(c.path...)
		t.set(c.name, v, ok)
	}
	v := t.values
	has := func(name string) bool { _, ok := v[name]; return ok }
	misses, okM := t.delta("cache", "misses")
	hits := v["jobs.ram_hits"]
	t.set("jobs.joined", misses-v["jobs.cas_hits"]-v["jobs.computed"], okM && has("jobs.cas_hits") && has("jobs.computed"))
	t.set("jobs.ram_hit_ratio", hits/(hits+misses), okM && has("jobs.ram_hits") && hits+misses > 0)
	fwd, okF := t.delta("cluster", "cluster_forwarded")
	t.set("cluster.hedge_waste", v["cluster.hedged"]/fwd, okF && has("cluster.hedged") && fwd > 0)
	live, okL := t.close.value("cas", "live_bytes")
	t.set("cas.live_bytes", live, okL)
	t.histMean("jobs.tier_ram_us", "tier_hit_ram", 1000)
	t.histMean("jobs.tier_cas_us", "tier_hit_cas", 1000)

	var jobSum, jobCount float64
	found := false
	for _, name := range t.close.histograms("job_") {
		s, _ := t.delta("latency_ms", name, "sum_ms")
		c, _ := t.delta("latency_ms", name, "count")
		jobSum, jobCount, found = jobSum+s, jobCount+c, true
	}
	t.set("jobs.compute_ms", jobSum/jobCount, jobCount > 0)
	t.set("jobs.busy_frac", jobSum/(ms(tr.win.elapsed)*workers*float64(nodes)), found)

	// Stage times cover the nodes' whole lives: on the warm workloads the
	// only evaluations are the set-up's.
	for _, st := range stages {
		s, okS := t.close.value("latency_ms", "stage_"+st, "sum_ms")
		c, okC := t.close.value("latency_ms", "stage_"+st, "count")
		t.set("core."+st+"_ms", s/c, okS && okC && c > 0)
	}
	evals, okE := t.close.value("latency_ms", "stage_synthesize", "count")
	t.set("core.evals", evals, okE)
}

// histMean sets name to the window mean of a gapd latency histogram,
// scaled from milliseconds.
func (t *tracer) histMean(name, hist string, scale float64) {
	s, okS := t.delta("latency_ms", hist, "sum_ms")
	c, okC := t.delta("latency_ms", hist, "count")
	t.set(name, scale*s/c, okS && okC && c > 0)
}

// delta is the change of a counter over the window, summed over nodes.
// A counter no node reports at the close is absent; one that appears
// during the window (histograms are created on first use) started at 0.
func (t *tracer) delta(path ...string) (float64, bool) {
	b, ok := t.close.value(path...)
	if !ok {
		return 0, false
	}
	a, _ := t.open.value(path...)
	return b - a, true
}

// forwarding classifies the traced window's requests by owner: the
// share that took the forward hop, and what the hop cost on average.
func (t *tracer) forwarding(win *window, next stream) {
	peer := win.latencies(func(s sample) bool { return next(s.req).peer })
	local := win.latencies(func(s sample) bool { return !next(s.req).peer })
	if n := len(peer) + len(local); n > 0 {
		t.values["cluster.forward_share"] = float64(len(peer)) / float64(n)
	}
	if len(peer) > 0 && len(local) > 0 {
		t.values["cluster.forward_us"] = us(mean(peer)) - us(mean(local))
	}
}

// selfCheck checks the workload's accounting from the /metrics deltas and
// the driver's own counts. A check whose counters are absent is skipped.
func (t *tracer) selfCheck(w workload, completed int, win *window, next stream) error {
	v := t.values
	need := func(names ...string) bool {
		for _, n := range names {
			if _, ok := v[n]; !ok {
				fmt.Fprintf(os.Stderr, "gapbench: %s: self-check skipped: %s absent\n", w.name, n)
				return false
			}
		}
		return true
	}
	done := float64(completed)
	var fails []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			fails = append(fails, fmt.Sprintf(format, args...))
		}
	}
	switch {
	case w.cold:
		if need("jobs.computed", "jobs.cas_hits") {
			check(v["jobs.computed"] == done, "computed %v != completed %v", v["jobs.computed"], done)
			check(v["jobs.cas_hits"] == 0, "cas_hits %v != 0", v["jobs.cas_hits"])
		}
	case w.nodes > 1:
		if fwd, ok := t.delta("cluster", "cluster_forwarded"); need("jobs.computed") && ok {
			peer := 0
			for _, s := range win.samples {
				if s.status == http.StatusOK && next(s.req).peer {
					peer++
				}
			}
			check(v["jobs.computed"] == 0, "computed %v != 0", v["jobs.computed"])
			check(float64(peer) == fwd, "peer-owned %d != forwarded %v", peer, fwd)
		}
	case w.restart:
		if need("jobs.computed", "jobs.ram_hits", "jobs.cas_hits") {
			check(v["jobs.computed"] == 0, "computed %v != 0", v["jobs.computed"])
			check(v["jobs.ram_hits"]+v["jobs.cas_hits"] == done, "ram_hits %v + cas_hits %v != completed %v",
				v["jobs.ram_hits"], v["jobs.cas_hits"], done)
		}
	default:
		if need("jobs.computed", "jobs.ram_hits") {
			check(v["jobs.computed"] == 0, "computed %v != 0", v["jobs.computed"])
			check(v["jobs.ram_hits"] == done, "ram_hits %v != completed %v", v["jobs.ram_hits"], done)
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("%s", strings.Join(fails, "; "))
	}
	fmt.Fprintf(os.Stderr, "gapbench: %s: self-checks pass\n", w.name)
	return nil
}

// scrape is /metrics of every node of a deployment.
type scrape []map[string]any

func scrapeAll(ctx context.Context, client *http.Client, d *deployment) (scrape, error) {
	s := make(scrape, len(d.nodes))
	for i, n := range d.nodes {
		if err := getJSON(ctx, client, n.url+"/metrics", &s[i]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// value sums the number at path over the nodes; false when no node has
// it.
func (s scrape) value(path ...string) (float64, bool) {
	sum, found := 0.0, false
	for _, m := range s {
		var cur any = m
		for _, k := range path {
			obj, ok := cur.(map[string]any)
			if !ok {
				cur = nil
				break
			}
			cur = obj[k]
		}
		if f, ok := cur.(float64); ok {
			sum, found = sum+f, true
		}
	}
	return sum, found
}

// histograms lists the latency histogram names with the given prefix.
func (s scrape) histograms(prefix string) []string {
	seen := map[string]bool{}
	var names []string
	for _, m := range s {
		lat, _ := m["latency_ms"].(map[string]any)
		for name := range lat {
			if strings.HasPrefix(name, prefix) && !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	return names
}

func writeSpans(path string, spans []probeio.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
