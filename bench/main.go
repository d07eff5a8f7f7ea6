// Command gapbench is gapd's end-to-end benchmark. It runs seeded
// closed-loop workloads against real gapd child processes over loopback,
// prints every end-to-end metric by name and unit, and checks every
// answer against an in-process reference. With -trace 1 it measures the
// workload with request spans, /metrics scrapes, and the in-process layer
// probes of gapprobe (probe/), and prints the per-layer budget instead.
//
// Run it through bench/run.sh from the repository root, which builds
// gapd and this driver from the checkout first:
//
//	bash bench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1]
//
// The last line of output for a single workload is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit status is non-zero when an answer is wrong, a window request
// fails, a workload self-check fails, or the run cannot complete.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	gapd     string
	probe    string // gapprobe binary, for the traced run
	work     string
	setups   int // least set-ups per untraced run; minSetups outside tests
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a gapd user sees, measured untraced.
var endToEnd = []metricDef{
	{"goodput_rps", "req/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"setup_s", "s"},
	{"server_cpu_us_per_req", "us/req"},
	{"server_rss_mb", "MB"},
}

func main() {
	o := options{setups: minSetups}
	var trace int
	flag.StringVar(&o.workload, "workload", "all", "workload: hot-mixed, cas-restart, cold-durable, cluster3-mixed, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the request picks and the cold-stream evaluation seeds")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured window per workload, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.StringVar(&o.gapd, "gapd", ".bench_build/bin/gapd", "gapd binary under test")
	flag.StringVar(&o.probe, "probe", ".bench_build/bin/gapprobe", "gapprobe binary, for the traced run")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for gapd state, logs and span files")
	flag.Parse()
	o.trace = trace == 1
	if (trace != 0 && trace != 1) || o.seconds <= 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, o, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gapbench: %v\n", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run that completed but got a wrong answer, had a
// window request fail, or failed a self-check; its result line is still
// printed.
var errIncorrect = errors.New("incorrect")

// verdict fails a window whose gate found a wrong answer or in which any
// request failed. A failed request counts against correctness, not only
// against the latencies it is left out of, so a change cannot improve
// p50_ms or p99_ms by turning slow answers into fast errors.
func verdict(st stats, gerr error) error {
	var errs []error
	if gerr != nil {
		errs = append(errs, fmt.Errorf("correctness gate: %v", gerr))
	}
	if failed := st.attempted - st.completed; failed > 0 {
		errs = append(errs, fmt.Errorf("%d of %d window requests failed", failed, st.attempted))
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %v", errIncorrect, errors.Join(errs...))
}

func run(ctx context.Context, o options, out io.Writer) error {
	var selected []workload
	if o.workload == "all" {
		selected = workloads
	} else if w, ok := findWorkload(o.workload); ok {
		selected = []workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if _, err := os.Stat(o.gapd); err != nil {
		return fmt.Errorf("gapd binary: %w", err)
	}
	in, err := buildInputs(o.seed)
	if err != nil {
		return err
	}
	runDir, err := makeDir(o.work, "run-"+strconv.Itoa(os.Getpid()))
	if err != nil {
		return err
	}
	refs := newReferences()
	var failed error
	for _, w := range selected {
		res, err := runWorkload(ctx, o, w, in, refs, filepath.Join(runDir, w.name))
		if err != nil && !errors.Is(err, errIncorrect) {
			return fmt.Errorf("%s: %w (state kept in %s)", w.name, err, runDir)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "gapbench: %s: %v\n", w.name, err)
			failed = err
		}
		if err := res.print(out, w.name); err != nil {
			return err
		}
	}
	if failed != nil {
		return fmt.Errorf("state kept in %s: %w", runDir, failed)
	}
	return os.RemoveAll(runDir)
}

// result is one workload's outcome.
type result struct {
	correct           bool
	attempted, failed int
	defs              []metricDef
	values            map[string]float64 // a missing key is an absent metric
}

// print writes one text line per metric, then the JSON result line. An
// absent metric reads "absent" in the text and 0 in the JSON.
func (r *result) print(out io.Writer, workload string) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]metric{}}
	for _, d := range r.defs {
		v, ok := r.values[d.name]
		if ok {
			fmt.Fprintf(out, "%-15s %-26s %14.6g %s\n", workload, d.name, v, d.unit)
		} else {
			fmt.Fprintf(out, "%-15s %-26s %14s %s\n", workload, d.name, "absent", d.unit)
		}
		line.Metrics[d.name] = metric{v, d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

func runWorkload(ctx context.Context, o options, w workload, in *inputs, refs *references, dir string) (*result, error) {
	if o.trace {
		return traceWorkload(ctx, o, w, in, refs, dir)
	}
	p, err := runPass(ctx, o, w, in, dir, false)
	if err != nil {
		return nil, err
	}
	defer p.dep.stop()
	_, gerr := gate(ctx, p.client, p.dep.entry().url, gateRequests(p.win, in.stream(w), w.cold, o.seed), refs)
	st := p.win.stats()
	verr := verdict(st, gerr)
	res := &result{
		correct:   verr == nil,
		attempted: st.attempted,
		failed:    st.attempted - st.completed,
		defs:      endToEnd,
		values: map[string]float64{
			"goodput_rps":           p.goodput,
			"p50_ms":                ms(st.p50),
			"p99_ms":                ms(st.p99),
			"setup_s":               median(p.setups),
			"server_cpu_us_per_req": p.cpuUS,
			"server_rss_mb":         p.rssMB,
		},
	}
	fmt.Fprintf(os.Stderr, "gapbench: %s: %d requests, %d failed, p50 %v over %d samples, p99 %v\n",
		w.name, st.attempted, res.failed, st.p50, st.completed, st.p99)
	return res, verr
}

// pass is one set-up plus measured window.
type pass struct {
	dep    *deployment
	dir    string // the measured set-up's directory
	client *http.Client
	setups []float64 // seconds per set-up
	win    *window
	// goodput and cpuUS (gapd CPU time per completed request, all nodes)
	// are medians over the window's slices; see window.rates.
	goodput, cpuUS float64
	rssMB          float64 // median over the window of the nodes' summed resident sets
	// scrapes holds /metrics of every node when the window opened and
	// when it closed (traced passes only).
	scrapes [2]scrape
}

// An untraced run sets up at least minSetups times and until the set-ups
// have taken setupTime, up to maxSetups: cheap set-ups are repeated more
// often, so that their median stays steady.
const (
	minSetups = 3
	setupTime = 2 * time.Second
	maxSetups = 15
)

// runPass sets the workload up, keeping the last deployment, and measures
// one window on it. setup_s is timed from spawning the first gapd until
// the deployment is ready for the window. An untraced pass sets up at
// least o.setups times; a traced pass sets up once and scrapes /metrics
// around the window.
func runPass(ctx context.Context, o options, w workload, in *inputs, dir string, traced bool) (*pass, error) {
	p := &pass{client: newClient(clients)}
	var spent time.Duration
	for k := 0; p.dep == nil; k++ {
		sdir, err := makeDir(dir, "setup-"+strconv.Itoa(k))
		if err != nil {
			return nil, err
		}
		e := &env{bin: o.gapd, dir: sdir, in: in, client: p.client}
		t0 := time.Now()
		dep, err := w.setup(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		p.setups = append(p.setups, d.Seconds())
		if traced || k+1 == maxSetups || (k+1 >= o.setups && spent >= setupTime) {
			p.dep, p.dir = dep, sdir
		} else {
			dep.stop()
		}
	}
	fail := func(err error) (*pass, error) {
		p.dep.stop()
		return nil, err
	}
	if traced {
		var err error
		if p.scrapes[0], err = scrapeAll(ctx, p.client, p.dep); err != nil {
			return fail(err)
		}
	}
	stopMeter := make(chan struct{})
	meter := make(chan *meter, 1)
	go func() { meter <- p.dep.sample(stopMeter) }()
	wc := newClient(clients)
	length := time.Duration(o.seconds * float64(time.Second))
	p.win = drive(ctx, wc, p.dep.entry().url, in.stream(w), clients, length)
	wc.CloseIdleConnections()
	close(stopMeter)
	m := <-meter
	if err := errors.Join(ctx.Err(), m.err); err != nil {
		return fail(err)
	}
	p.rssMB = median(m.mb)
	p.goodput, p.cpuUS = p.win.rates(m, length)
	if traced {
		var err error
		if p.scrapes[1], err = scrapeAll(ctx, p.client, p.dep); err != nil {
			return fail(err)
		}
	}
	return p, nil
}

func (d *deployment) cpuTicks() (int64, error) {
	var sum int64
	for _, n := range d.nodes {
		t, err := n.cpuTicks()
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// meter holds what sample read from the nodes during a window.
type meter struct {
	at    []time.Time
	ticks []int64   // CPU time of all nodes at each sample
	mb    []float64 // summed resident sets at each sample
	err   error
}

// sample reads the nodes' CPU time and summed resident set every 100 ms
// until stop is closed, and once more then. The median of the resident
// sets is steadier than the peak, which moves with the timing of garbage
// collections.
func (d *deployment) sample(stop <-chan struct{}) *meter {
	m := &meter{}
	for {
		ticks, err := d.cpuTicks()
		var kb int64
		for _, n := range d.nodes {
			k, rerr := n.rssKB()
			kb += k
			err = errors.Join(err, rerr)
		}
		if err != nil {
			m.err = err
			return m
		}
		m.at = append(m.at, time.Now())
		m.ticks = append(m.ticks, ticks)
		m.mb = append(m.mb, float64(kb)/1024)
		select {
		case <-stop:
			return m
		default:
		}
		select {
		case <-stop:
		case <-time.After(100 * time.Millisecond):
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
