package sizing_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/cell"
	"repro/internal/circuits"
	"repro/internal/jobs"
	"repro/internal/loadgen"
	"repro/internal/netlist"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/units"
	"repro/internal/wire"
)

// matchesFresh fails unless r, the incremental timer's result inside
// TILOS, equals a fresh sta.Analyze of n field for field, floats bit for
// bit.
func matchesFresh(t *testing.T, n *netlist.Netlist, r *sta.Result) {
	t.Helper()
	want, err := sta.Analyze(n, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b units.Tau) bool { return math.Float64bits(float64(a)) == math.Float64bits(float64(b)) }
	for i := range want.Arrival {
		if !same(r.Arrival[i], want.Arrival[i]) {
			t.Fatalf("%s: net %d arrival %v, fresh analysis %v", n.Name, i, r.Arrival[i], want.Arrival[i])
		}
	}
	if len(r.Arrival) != len(want.Arrival) || !same(r.WorstComb, want.WorstComb) ||
		!same(r.WorstEndpointDelay, want.WorstEndpointDelay) ||
		r.WorstEnd != want.WorstEnd || r.WorstEndKind != want.WorstEndKind || len(r.Critical) != len(want.Critical) {
		t.Fatalf("%s: incremental worst %v at %d over %d steps, fresh analysis %v at %d over %d steps",
			n.Name, r.WorstComb, r.WorstEnd, len(r.Critical), want.WorstComb, want.WorstEnd, len(want.Critical))
	}
	for i, w := range want.Critical {
		g := r.Critical[i]
		if g.Gate != w.Gate || g.Net != w.Net || g.What() != w.What() || !same(g.Arrival, w.Arrival) || !same(g.Delay, w.Delay) {
			t.Fatalf("%s: critical step %d %+v, fresh analysis %+v", n.Name, i, g, w)
		}
	}
}

// checkSteps makes every TILOS bump until the returned func is called
// check the incremental timer against a fresh analysis, and counts them.
func checkSteps(t *testing.T, steps *int) (restore func()) {
	return sizing.SetStepCheck(func(n *netlist.Netlist, r *sta.Result) {
		*steps++
		matchesFresh(t, n, r)
	})
}

// withWireLoads gives every net a fanout-based wire load, as pre-layout
// sizing sees it, so TILOS has loads to trade against.
func withWireLoads(n *netlist.Netlist) *netlist.Netlist {
	wl := wire.LoadModel{M: wire.NewModel(units.ASIC025), BlockAreaMM2: 1}
	for _, nt := range n.Nets() {
		if fo := len(nt.Sinks) + len(nt.RegSinks); fo > 0 {
			nt.WireCap = wl.NetCap(fo)
		}
	}
	return n
}

// TestTILOSIncrementalTimingOnRandomDAGs checks the timer at every TILOS
// step on seeded random logic, under a continuous and a discrete
// library, and the metamorphic property that TILOS never returns a
// worse critical path than it started with.
func TestTILOSIncrementalTimingOnRandomDAGs(t *testing.T) {
	for _, lib := range []*cell.Library{cell.Custom(), cell.RichASIC()} {
		for seed := int64(1); seed <= 6; seed++ {
			src, err := circuits.RandomLogic(lib, 10, 80+40*int(seed), seed)
			if err != nil {
				t.Fatal(err)
			}
			n := withWireLoads(src)
			start, err := sta.Analyze(n, sta.Options{})
			if err != nil {
				t.Fatal(err)
			}
			steps := 0
			restore := checkSteps(t, &steps)
			opt := sizing.DefaultOptions()
			opt.MaxIters = 150
			res, err := sizing.ContinuousTILOS(n, lib, opt)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if steps != res.Iters {
				t.Errorf("%s seed %d: %d steps checked, %d iterations", lib.Name, seed, steps, res.Iters)
			}
			if res.Before != start.WorstComb || res.After > res.Before {
				t.Errorf("%s seed %d: TILOS went %v -> %v from a start of %v", lib.Name, seed, res.Before, res.After, start.WorstComb)
			}
			end, err := sta.Analyze(n, sta.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if end.WorstComb != res.After {
				t.Errorf("%s seed %d: reported %v, re-analysis %v", lib.Name, seed, res.After, end.WorstComb)
			}
		}
	}
}

// TestTILOSIncrementalTimingOnColdTemplates runs the four full-custom
// templates of the cold stream (the only ones whose flow runs TILOS)
// through the whole evaluate flow, checking the timer at every TILOS
// step of the post-layout sizing stage.
func TestTILOSIncrementalTimingOnColdTemplates(t *testing.T) {
	c, err := loadgen.BuildCorpus(loadgen.CorpusSpec{Family: "adders", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	templates := 0
	for _, it := range c.Items {
		s := it.Spec
		if s.Methodology.Base != "full-custom" {
			continue
		}
		templates++
		s.Seed = 1
		steps := 0
		restore := checkSteps(t, &steps)
		_, err := jobs.Run(context.Background(), s, 1)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if steps == 0 {
			t.Errorf("%s/%d: TILOS made no step", s.Design.Name, s.Design.Width)
		}
		t.Logf("%s/%d: %d TILOS steps checked", s.Design.Name, s.Design.Width, steps)
	}
	if templates != 4 {
		t.Fatalf("%d full-custom cold templates, want 4", templates)
	}
}
