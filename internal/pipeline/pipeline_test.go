package pipeline

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/circuits"
	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/units"
)

// deepComb builds a deep combinational netlist (no registers): a few
// chained CLA slices' worth of logic via the ALU generator is registered,
// so use a bare inverter/nand ladder with real structure instead.
func deepComb(t *testing.T, depth int) *netlist.Netlist {
	t.Helper()
	lib := cell.RichASIC()
	n := netlist.New("deep")
	a := n.AddInput("a")
	b := n.AddInput("b")
	x, y := a, b
	for i := 0; i < depth; i++ {
		nx := n.MustGate(lib.Smallest(cell.FuncNand2), x, y)
		ny := n.MustGate(lib.Smallest(cell.FuncXor2), y, nx)
		x, y = nx, ny
	}
	n.MarkOutput(x)
	n.MarkOutput(y)
	return n
}

func ff() *cell.SeqCell { return cell.ASICFlipFlop(2) }

func TestPipelineStructure(t *testing.T) {
	n := deepComb(t, 30)
	p, err := Pipeline(n, Options{Stages: 4, Seq: ff()})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	if p.NumRegs() == 0 {
		t.Fatal("no registers inserted")
	}
	// Gate stages must be monotone along edges.
	for _, g := range p.Gates() {
		for _, in := range g.In {
			if fi := p.Net(in).Driver; fi != netlist.None && p.Gate(fi).Stage > g.Stage {
				t.Fatalf("stage decreases along edge %d->%d", fi, g.ID)
			}
		}
	}
	// All primary outputs must be register Q pins (aligned capture).
	for _, id := range p.Outputs() {
		if p.Net(id).DriverReg == netlist.None {
			t.Fatal("output not captured by a register")
		}
	}
}

func TestPipelineRejectsRegisteredInput(t *testing.T) {
	lib := cell.RichASIC()
	n, err := circuits.DatapathChain(lib, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pipeline(n, Options{Stages: 2, Seq: ff()}); err == nil {
		t.Fatal("registered netlist must be rejected")
	}
}

func TestPipelineValidatesOptions(t *testing.T) {
	n := deepComb(t, 5)
	if _, err := Pipeline(n, Options{Stages: 0, Seq: ff()}); err == nil {
		t.Fatal("zero stages must be rejected")
	}
	if _, err := Pipeline(n, Options{Stages: 2}); err == nil {
		t.Fatal("missing sequential cell must be rejected")
	}
}

func TestDeeperPipelinesShortenCycle(t *testing.T) {
	n := deepComb(t, 40)
	clk := sta.ASICClocking()
	var prev units.Tau = math.MaxFloat64
	for _, stages := range []int{1, 2, 4, 8} {
		rep, _, err := Evaluate(n, Options{Stages: stages, Seq: ff()}, clk, false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cycle >= prev && stages > 1 {
			t.Fatalf("%d stages did not shorten the cycle: %.1f vs %.1f FO4",
				stages, rep.Cycle.FO4(), prev.FO4())
		}
		prev = rep.Cycle
	}
}

func TestPipeliningSpeedupBand(t *testing.T) {
	// Paper section 4: a five-stage ASIC pipeline with ~30% overhead
	// comes out ~3.8x faster; four custom stages at ~20% overhead
	// ~3.4x. With ASIC registers and skew our 5-stage cut should land
	// in the 3-4.5x band on a deep datapath.
	n := deepComb(t, 60)
	rep, _, err := Evaluate(n, Options{Stages: 5, Seq: ff()}, sta.ASICClocking(), false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Speedup < 3.0 || rep.Speedup > 4.6 {
		t.Fatalf("5-stage speedup = %.2f, want in [3.0, 4.6] (paper: ~3.8)", rep.Speedup)
	}
}

func TestBalancedBeatsNaive(t *testing.T) {
	// An imbalanced circuit: cheap gates early, expensive gates late.
	lib := cell.RichASIC()
	n := netlist.New("imb")
	x := n.AddInput("a")
	for i := 0; i < 20; i++ {
		x = n.MustGate(lib.Smallest(cell.FuncInv), x)
	}
	for i := 0; i < 10; i++ {
		x = n.MustGate(lib.Smallest(cell.FuncXor2), x, x)
	}
	n.MarkOutput(x)

	clk := sta.ASICClocking()
	bal, _, err := Evaluate(n, Options{Stages: 3, Seq: ff(), Method: BalancedDelay}, clk, false)
	if err != nil {
		t.Fatal(err)
	}
	nai, _, err := Evaluate(n, Options{Stages: 3, Seq: ff(), Method: NaiveLevels}, clk, false)
	if err != nil {
		t.Fatal(err)
	}
	if bal.Cycle > nai.Cycle {
		t.Fatalf("balanced cut (%.1f FO4) slower than naive (%.1f FO4)", bal.Cycle.FO4(), nai.Cycle.FO4())
	}
}

func TestStageDelaysCoverAllStages(t *testing.T) {
	n := deepComb(t, 40)
	const stages = 4
	p, err := Pipeline(n, Options{Stages: stages, Seq: ff()})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sta.Analyze(p, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := StageDelays(p, r, stages)
	for i, v := range d {
		if v <= 0 {
			t.Fatalf("stage %d has zero delay", i)
		}
	}
}

func TestBorrowedCycleBounds(t *testing.T) {
	clk := sta.Clocking{}
	stages := []units.Tau{10, 30, 10, 10}
	ffc := FFCycle(stages, clk)
	bor := BorrowedCycle(stages, clk)
	if bor > ffc {
		t.Fatalf("borrowing (%.1f) cannot be slower than FF (%.1f)", float64(bor), float64(ffc))
	}
	// Ideal borrowing is bounded below by the global average.
	if float64(bor) < 15 {
		t.Fatalf("borrowed cycle %.1f below global average 15", float64(bor))
	}
	// And for this profile the max window average is (10+30)/2 = 20.
	if math.Abs(float64(bor)-20) > 1e-6 {
		t.Fatalf("borrowed cycle = %.1f, want 20", float64(bor))
	}
}

func TestBorrowedCycleProperty(t *testing.T) {
	f := func(raw [6]uint8) bool {
		stages := make([]units.Tau, 0, 6)
		for _, v := range raw {
			stages = append(stages, units.Tau(1+float64(v%40)))
		}
		clk := sta.Clocking{}
		ffc := FFCycle(stages, clk)
		bor := BorrowedCycle(stages, clk)
		sum := units.Tau(0)
		for _, s := range stages {
			sum += s
		}
		avg := float64(sum) / float64(len(stages))
		return bor <= ffc && float64(bor) >= avg-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatchBorrowingBeatsFFOnImbalance(t *testing.T) {
	n := deepComb(t, 50)
	clk := sta.ASICClocking()
	ffRep, _, err := Evaluate(n, Options{Stages: 5, Seq: ff()}, clk, false)
	if err != nil {
		t.Fatal(err)
	}
	latch := cell.TransparentLatch(2)
	borRep, _, err := Evaluate(n, Options{Stages: 5, Seq: latch}, clk, true)
	if err != nil {
		t.Fatal(err)
	}
	if borRep.Cycle >= ffRep.Cycle {
		t.Fatalf("latch borrowing (%.1f FO4) should beat FF clocking (%.1f FO4)",
			borRep.Cycle.FO4(), ffRep.Cycle.FO4())
	}
}

func TestWorkloadCPI(t *testing.T) {
	dsp := DSPWorkload()
	bus := BusInterfaceWorkload()
	if dsp.CPI(8) >= bus.CPI(8) {
		t.Fatal("a bus interface must stall more than a DSP stream")
	}
	// CPI grows with depth when hazards exist.
	if bus.CPI(10) <= bus.CPI(2) {
		t.Fatal("hazard CPI must grow with pipeline depth")
	}
	// And stays 1 for a perfect workload.
	perfect := Workload{ILP: 1}
	if perfect.CPI(10) != 1 {
		t.Fatalf("hazard-free CPI = %g, want 1", perfect.CPI(10))
	}
}

func TestBestDepthDependsOnWorkload(t *testing.T) {
	// Cycle model: cycle(n) = comb/n + overhead.
	cycleAt := func(n int) float64 { return 60/float64(n) + 6 }
	dspN, _ := DSPWorkload().BestDepth(16, cycleAt)
	busN, _ := BusInterfaceWorkload().BestDepth(16, cycleAt)
	if dspN <= busN {
		t.Fatalf("DSP best depth (%d) should exceed bus-interface best depth (%d)", dspN, busN)
	}
	if busN > 4 {
		t.Fatalf("bus interface best depth = %d, want shallow (<=4)", busN)
	}
	if dspN < 8 {
		t.Fatalf("DSP best depth = %d, want deep (>=8)", dspN)
	}
}

func TestThroughputNormalization(t *testing.T) {
	w := IntegerWorkload()
	if got := w.Throughput(1, 1); math.Abs(got-1) > 1e-9 {
		t.Fatalf("throughput(1,1) = %g, want 1", got)
	}
}

func TestAlignmentChains(t *testing.T) {
	// A net produced in stage 0 and consumed in the final stage must be
	// carried by a register chain, not wired across stages.
	lib := cell.RichASIC()
	n := netlist.New("skip")
	a := n.AddInput("a")
	x := a
	for i := 0; i < 30; i++ {
		x = n.MustGate(lib.Smallest(cell.FuncXor2), x, x)
	}
	// y is cheap and feeds the final gate together with deep x.
	y := n.MustGate(lib.Smallest(cell.FuncInv), a)
	z := n.MustGate(lib.Smallest(cell.FuncNand2), x, y)
	n.MarkOutput(z)
	p, err := Pipeline(n, Options{Stages: 4, Seq: ff()})
	if err != nil {
		t.Fatal(err)
	}
	// The inverter output must reach stage 3 via >= 3 registers.
	if p.NumRegs() < 4 { // 3 alignment + 1 output capture at minimum
		t.Fatalf("expected alignment registers, got %d regs total", p.NumRegs())
	}
	// Every gate's inputs must come from its own stage (reg Q of its
	// stage or same-stage gate or PI in stage 0).
	for _, g := range p.Gates() {
		for _, in := range g.In {
			nt := p.Net(in)
			switch {
			case nt.IsInput:
				if g.Stage != 0 {
					t.Fatalf("gate in stage %d reads a primary input directly", g.Stage)
				}
			case nt.Driver != netlist.None:
				if p.Gate(nt.Driver).Stage != g.Stage {
					t.Fatalf("cross-stage wire without register: %d -> %d",
						p.Gate(nt.Driver).Stage, g.Stage)
				}
			case nt.DriverReg != netlist.None:
				if p.Reg(nt.DriverReg).Stage != g.Stage {
					t.Fatalf("register of stage %d feeds gate of stage %d",
						p.Reg(nt.DriverReg).Stage, g.Stage)
				}
			}
		}
	}
}

// TestPipelineNames: the pipelined netlist is named "<name>_p<stages>"
// and every alignment register's output net "<original net>_s<stage>",
// the spellings fmt.Sprintf("%s_p%d") and fmt.Sprintf("%s_s%d") give.
func TestPipelineNames(t *testing.T) {
	n := deepComb(t, 30)
	const stages = 5
	p, err := Pipeline(n, Options{Stages: stages, Seq: ff()})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%s_p%d", n.Name, stages); p.Name != want {
		t.Fatalf("pipelined netlist named %q, want %q", p.Name, want)
	}
	want := map[string]bool{}
	for id := 0; id < n.NumNets(); id++ {
		for s := 1; s < stages; s++ {
			want[fmt.Sprintf("%s_s%d", n.Net(netlist.NetID(id)).Name, s)] = true
		}
	}
	aligned := 0
	for _, r := range p.Regs() {
		if r.Stage == stages {
			continue // capture register
		}
		aligned++
		name := p.Net(r.Q).Name
		if !want[name] || !strings.HasSuffix(name, fmt.Sprintf("_s%d", r.Stage)) {
			t.Errorf("alignment register at stage %d drives %q", r.Stage, name)
		}
	}
	if aligned == 0 {
		t.Fatal("no alignment registers to check")
	}
}
