package sta

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/units"
)

// chain builds n inverters in series, each loaded by the next (the last
// drives a marked output with the given extra load).
func chain(lib *cell.Library, n int) *netlist.Netlist {
	nl := netlist.New("chain")
	x := nl.AddInput("a")
	inv := lib.Smallest(cell.FuncInv)
	for i := 0; i < n; i++ {
		x = nl.MustGate(inv, x)
	}
	nl.MarkOutput(x)
	return nl
}

func TestInverterChainDelay(t *testing.T) {
	lib := cell.RichASIC()
	nl := chain(lib, 10)
	r, err := Analyze(nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Nine self-loaded stages (p+g = 2 tau each) + one unloaded final
	// stage (p = 1 tau).
	want := units.Tau(9*2 + 1)
	if math.Abs(float64(r.WorstComb-want)) > 1e-9 {
		t.Fatalf("chain delay = %g tau, want %g", float64(r.WorstComb), float64(want))
	}
	if r.Depth() != 10 {
		t.Fatalf("depth = %d, want 10", r.Depth())
	}
}

func TestFO4ChainCalibration(t *testing.T) {
	// An inverter chain where each stage drives 4x its own input cap
	// must run at exactly 1 FO4 per stage. Construct with explicit
	// wire cap to reach h=4 on every stage.
	lib := cell.RichASIC()
	nl := netlist.New("fo4chain")
	x := nl.AddInput("a")
	inv := lib.Smallest(cell.FuncInv)
	const stages = 8
	for i := 0; i < stages; i++ {
		x = nl.MustGate(inv, x)
	}
	nl.MarkOutput(x)
	// Each internal net already carries one inverter input (h=1); add
	// wire cap worth three more inputs. The final net gets 4 inputs of
	// load via PortLoad.
	for _, g := range nl.Gates() {
		out := nl.Net(g.Out)
		if out.IsOutput {
			out.PortLoad = units.Cap(4 * float64(inv.InputCap()))
		} else {
			out.WireCap = units.Cap(3 * float64(inv.InputCap()))
		}
	}
	r, err := Analyze(nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.CombFO4(); math.Abs(got-stages) > 1e-9 {
		t.Fatalf("FO4-loaded chain = %g FO4, want %d", got, stages)
	}
}

func TestWorstEndpointIsRegisterWithSetup(t *testing.T) {
	lib := cell.RichASIC()
	nl := netlist.New("reg")
	ff := lib.DefaultSeq(2)
	a := nl.AddInput("a")
	q := nl.AddReg(ff, a) // input register
	x := nl.MustGate(lib.Smallest(cell.FuncInv), q)
	nl.AddReg(ff, x) // capture register
	r, err := Analyze(nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.WorstEndKind != EndRegisterD {
		t.Fatal("worst endpoint should be the register D pin")
	}
	if r.WorstEndpointDelay <= r.WorstComb {
		t.Fatal("endpoint delay must include setup")
	}
	wantSetup := ff.Setup
	if got := r.WorstEndpointDelay - r.WorstComb; math.Abs(float64(got-wantSetup)) > 1e-9 {
		t.Fatalf("setup charged = %g, want %g", float64(got), float64(wantSetup))
	}
	// Launch overhead: arrival at Q must equal clk-to-Q plus output
	// drive delay.
	if r.Arrival[q] < ff.ClkToQ {
		t.Fatal("arrival at Q must include clock-to-Q")
	}
}

func TestCriticalPathBacktrack(t *testing.T) {
	lib := cell.RichASIC()
	nl := netlist.New("y")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	// Long arm: 4 inverters from a. Short arm: 1 inverter from b.
	x := a
	for i := 0; i < 4; i++ {
		x = nl.MustGate(lib.Smallest(cell.FuncInv), x)
	}
	y := nl.MustGate(lib.Smallest(cell.FuncInv), b)
	z := nl.MustGate(lib.Smallest(cell.FuncNand2), x, y)
	nl.MarkOutput(z)
	r, err := Analyze(nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Path must start at a, not b.
	first := r.Critical[0]
	if first.What() != "PI:a" {
		t.Fatalf("critical path starts at %q, want PI:a", first.What())
	}
	if len(r.Critical) != 6 { // PI + 4 inv + nand
		t.Fatalf("path has %d steps, want 6", len(r.Critical))
	}
	// Arrivals along the path must be nondecreasing.
	for i := 1; i < len(r.Critical); i++ {
		if r.Critical[i].Arrival < r.Critical[i-1].Arrival {
			t.Fatal("arrivals must be nondecreasing along the critical path")
		}
	}
	if r.PathString() == "" {
		t.Fatal("empty path string")
	}
}

func TestInputArrivalShiftsEverything(t *testing.T) {
	lib := cell.RichASIC()
	nl := chain(lib, 3)
	r0, _ := Analyze(nl, Options{})
	r5, _ := Analyze(nl, Options{InputArrival: 5})
	if math.Abs(float64(r5.WorstComb-r0.WorstComb-5)) > 1e-9 {
		t.Fatal("input arrival must shift the endpoint by exactly its value")
	}
}

func TestAnalyzeRejectsNoEndpoints(t *testing.T) {
	nl := netlist.New("empty")
	nl.AddInput("a")
	if _, err := Analyze(nl, Options{}); err == nil {
		t.Fatal("netlist without endpoints must error")
	}
}

func TestMinCycleDecomposition(t *testing.T) {
	lib := cell.RichASIC()
	nl := netlist.New("p")
	ff := lib.DefaultSeq(2)
	a := nl.AddInput("a")
	q := nl.AddReg(ff, a)
	x := q
	for i := 0; i < 20; i++ {
		x = nl.MustGate(lib.Smallest(cell.FuncInv), x)
	}
	nl.AddReg(ff, x)
	r, err := Analyze(nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.MinCycle(ASICClocking())
	if err != nil {
		t.Fatal(err)
	}
	// cycle = (logic+setup)/(1-skew); verify the algebra.
	want := (float64(r.WorstComb) + float64(rep.Setup)) / 0.9
	if math.Abs(float64(rep.Cycle)-want) > 1e-9 {
		t.Fatalf("cycle = %g, want %g", float64(rep.Cycle), want)
	}
	if rep.OverheadFrac() <= 0 || rep.OverheadFrac() >= 1 {
		t.Fatalf("overhead fraction %g out of (0,1)", rep.OverheadFrac())
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestMinCycleSkewValidation(t *testing.T) {
	lib := cell.RichASIC()
	nl := chain(lib, 2)
	r, _ := Analyze(nl, Options{})
	if _, err := r.MinCycle(Clocking{SkewFrac: 1.0}); err == nil {
		t.Fatal("skew fraction 1.0 must be rejected")
	}
	if _, err := r.MinCycle(Clocking{SkewFrac: -0.1}); err == nil {
		t.Fatal("negative skew must be rejected")
	}
}

func TestCustomSkewBeatsASICSkew(t *testing.T) {
	lib := cell.RichASIC()
	nl := chain(lib, 30)
	r, _ := Analyze(nl, Options{})
	asic, _ := r.MinCycle(ASICClocking())
	custom, _ := r.MinCycle(CustomClocking())
	gain := float64(asic.Cycle) / float64(custom.Cycle)
	// Paper section 4.1: about 10% speed from custom-quality skew alone
	// (10% vs 5% of cycle). (1/0.9)/(1/0.95) = 1.0556 on pure-logic
	// cycles; with setup it stays in a 4-7% band.
	if gain < 1.04 || gain > 1.08 {
		t.Fatalf("skew-only gain = %.3f, want ~1.05", gain)
	}
}

func TestArrivalMonotoneUnderAddedLoad(t *testing.T) {
	lib := cell.RichASIC()
	f := func(extra uint8) bool {
		nl := chain(lib, 5)
		r0, err := Analyze(nl, Options{})
		if err != nil {
			return false
		}
		nl.Net(nl.Outputs()[0]).PortLoad = units.Cap(float64(extra))
		r1, err := Analyze(nl, Options{})
		if err != nil {
			return false
		}
		return r1.WorstComb >= r0.WorstComb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
