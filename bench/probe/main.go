// Command gapprobe is the in-process half of gapbench's traced run. It
// replays a traced window's requests through gapd's layers —
// canonicalization, Pool.Do and the serve handler — on a pool in the tier
// state the window started from, and times the result store and journal
// of the durable workloads. It prints the per-layer values and one span
// per probe call as one probeio.Output JSON object.
//
// It is a binary of its own so that only the traced run links the pool,
// store and journal wiring; an untraced gapbench run needs none of it.
// gapbench writes the input file and runs
//
//	gapprobe -in probe.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/bench/probeio"
	"repro/internal/cas"
	"repro/internal/jobs"
	"repro/internal/serve"
)

const (
	// workers matches gapd -workers 2 in every workload.
	workers = 2
	// probeComputes caps the replays through the pool and the handler on
	// the durable tier, where each one is a fresh evaluation.
	probeComputes = 64
	// probeRepeats is how often the one-shot probes (store open, journal
	// replay) run; they report the median.
	probeRepeats = 5
)

func main() {
	in := flag.String("in", "", "probe input file (probeio.Input JSON)")
	flag.Parse()
	if *in == "" || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(context.Background(), *in, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "gapprobe: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, path string, out io.Writer) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var in probeio.Input
	if err := json.Unmarshal(b, &in); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := os.MkdirAll(in.Scratch, 0o755); err != nil {
		return err
	}
	p := &prober{in: &in, epoch: time.Unix(0, in.EpochNS), out: probeio.Output{Values: map[string]float64{}}}
	if err := p.probes(ctx); err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(p.out)
}

type prober struct {
	in    *probeio.Input
	epoch time.Time
	out   probeio.Output
}

// timed runs fn as one probe span.
func (p *prober) timed(id int, layer string, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	p.out.Spans = append(p.out.Spans, probeio.Span{ID: id, Layer: layer, Start: t0.Sub(p.epoch).Nanoseconds(), End: t1.Sub(p.epoch).Nanoseconds()})
	return t1.Sub(t0), err
}

// probes replays the requests through canonicalization, Pool.Do and the
// serve handler, each on a fresh pool in the input's tier state, then
// runs the store and journal probes of the durable tiers.
func (p *prober) probes(ctx context.Context) error {
	replays := len(p.in.Replays)
	if replays == 0 {
		return fmt.Errorf("no requests to replay")
	}
	specs := make([]jobs.Spec, replays)
	for i, r := range p.in.Replays {
		if err := json.Unmarshal(r.Body, &specs[i]); err != nil {
			return fmt.Errorf("replay %d: %w", i, err)
		}
	}
	n := replays
	if p.in.Tier == probeio.TierDurable {
		n = min(probeComputes, n)
	}

	var canon time.Duration
	for i := range specs {
		d, err := p.timed(i, "jobs.canon", func() error {
			c, err := specs[i].Canon()
			if err == nil {
				_ = c.Hash()
			}
			return err
		})
		if err != nil {
			return err
		}
		canon += d
	}
	p.out.Values["jobs.canon_us"] = us(canon) / float64(replays)

	pool, done, err := p.pool(ctx)
	if err != nil {
		return err
	}
	var do time.Duration
	for i := 0; i < n && err == nil; i++ {
		var d time.Duration
		d, err = p.timed(i, "jobs.do", func() error { _, err := pool.Do(ctx, specs[i]); return err })
		do += d
	}
	done()
	if err != nil {
		return fmt.Errorf("jobs.do: %w", err)
	}
	p.out.Values["jobs.do_us"] = us(do) / float64(n)

	if pool, done, err = p.pool(ctx); err != nil {
		return err
	}
	h := serve.NewHandler(serve.Options{Pool: pool})
	var handler time.Duration
	for i := 0; i < n && err == nil; i++ {
		r := p.in.Replays[i]
		req := httptest.NewRequest(http.MethodPost, r.Path, bytes.NewReader(r.Body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		var d time.Duration
		d, err = p.timed(i, "serve.handler", func() error {
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("status %d", rec.Code)
			}
			return nil
		})
		handler += d
	}
	done()
	if err != nil {
		return fmt.Errorf("serve.handler: %w", err)
	}
	p.out.Values["serve.handler_us"] = us(handler) / float64(n)

	switch p.in.Tier {
	case probeio.TierRestart:
		return p.storeProbes(ctx)
	case probeio.TierDurable:
		return p.putProbe()
	}
	return nil
}

// pool builds a pool in the input's tier state; done releases it.
func (p *prober) pool(ctx context.Context) (*jobs.Pool, func(), error) {
	switch p.in.Tier {
	case probeio.TierWarm:
		return warmPool(p.in.Warm)
	case probeio.TierRestart:
		return restartPool(ctx, p.in.Dir)
	case probeio.TierDurable:
		return durablePool(p.in.Scratch)
	}
	return nil, nil, fmt.Errorf("unknown tier %q", p.in.Tier)
}

// storeProbes times cas.Open and jobs.RecoverFromJournal on the restarted
// gapd's store and journal, and Store.Get over the replayed addresses.
func (p *prober) storeProbes(ctx context.Context) error {
	var opens, replays []float64
	for k := 0; k < probeRepeats; k++ {
		var st *cas.Store
		d, err := p.timed(-1, "cas.open", func() error {
			var err error
			st, err = cas.Open(cas.Options{Dir: filepath.Join(p.in.Dir, "store")})
			return err
		})
		if err != nil {
			return err
		}
		st.Close()
		opens = append(opens, ms(d))
		pool, jdir, done, err := openRestart(p.in.Dir)
		if err != nil {
			return err
		}
		d, err = p.timed(-1, "jobs.replay", func() error {
			_, err := jobs.RecoverFromJournal(ctx, pool, jdir)
			return err
		})
		done()
		if err != nil {
			return err
		}
		replays = append(replays, ms(d))
	}
	p.out.Values["cas.open_ms"] = median(opens)
	p.out.Values["jobs.replay_ms"] = median(replays)

	st, err := cas.Open(cas.Options{Dir: filepath.Join(p.in.Dir, "store")})
	if err != nil {
		return err
	}
	defer st.Close()
	var get time.Duration
	for i, r := range p.in.Replays {
		d, err := p.timed(i, "cas.get", func() error {
			if _, ok := st.Get(r.Hash); !ok {
				return fmt.Errorf("cas.get: %.12s not stored", r.Hash)
			}
			return nil
		})
		if err != nil {
			return err
		}
		get += d
	}
	p.out.Values["cas.get_us"] = us(get) / float64(len(p.in.Replays))
	return nil
}

// putProbe times Store.Put of the input's verified results into a fresh
// store.
func (p *prober) putProbe() error {
	dir, err := os.MkdirTemp(p.in.Scratch, "put-")
	if err != nil {
		return err
	}
	st, err := cas.Open(cas.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer st.Close()
	hashes := make([]string, 0, len(p.in.Puts))
	for h := range p.in.Puts {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	var put time.Duration
	for _, h := range hashes {
		d, err := p.timed(-1, "cas.put", func() error { return st.Put(h, p.in.Puts[h]) })
		if err != nil {
			return err
		}
		put += d
	}
	if len(hashes) > 0 {
		p.out.Values["cas.put_us"] = us(put) / float64(len(hashes))
	}
	return nil
}

// warmPool is the warm tier: every given result in the RAM cache.
func warmPool(results []json.RawMessage) (*jobs.Pool, func(), error) {
	pool := jobs.NewPool(jobs.Options{Workers: workers})
	for _, b := range results {
		var res jobs.Result
		if err := json.Unmarshal(b, &res); err != nil {
			return nil, nil, err
		}
		if _, err := pool.StoreResult(&res); err != nil {
			return nil, nil, err
		}
	}
	return pool, func() {}, nil
}

// restartPool is the restart tier: a pool with an 8-entry cache recovered
// from dir's store and journal.
func restartPool(ctx context.Context, dir string) (*jobs.Pool, func(), error) {
	pool, jdir, done, err := openRestart(dir)
	if err != nil {
		return nil, nil, err
	}
	if _, err := jobs.RecoverFromJournal(ctx, pool, jdir); err != nil {
		done()
		return nil, nil, err
	}
	return pool, done, nil
}

// openRestart opens dir's store and journal under a pool configured as
// gapd -cache 8, before the journal replay.
func openRestart(dir string) (*jobs.Pool, string, func(), error) {
	st, err := cas.Open(cas.Options{Dir: filepath.Join(dir, "store")})
	if err != nil {
		return nil, "", nil, err
	}
	jdir := filepath.Join(dir, "journal")
	j, err := jobs.OpenJournal(jdir)
	if err != nil {
		st.Close()
		return nil, "", nil, err
	}
	pool := jobs.NewPool(jobs.Options{Workers: workers, CacheEntries: 8, Store: st, Journal: j})
	return pool, jdir, func() {
		j.Close()
		st.Close()
	}, nil
}

// durablePool is the durable tier: an empty store and journal.
func durablePool(scratch string) (*jobs.Pool, func(), error) {
	dir, err := os.MkdirTemp(scratch, "pool-")
	if err != nil {
		return nil, nil, err
	}
	st, err := cas.Open(cas.Options{Dir: filepath.Join(dir, "store")})
	if err != nil {
		return nil, nil, err
	}
	j, err := jobs.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	pool := jobs.NewPool(jobs.Options{Workers: workers, Store: st, Journal: j})
	return pool, func() {
		j.Close()
		st.Close()
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
