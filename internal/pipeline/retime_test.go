package pipeline

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/circuits"
	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/units"
)

func TestRefineImprovesBalance(t *testing.T) {
	lib := cell.RichASIC()
	n, err := circuits.DatapathComb(lib, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	clk := sta.ASICClocking()
	plain, _, err := Evaluate(n, Options{Stages: 4, Seq: lib.DefaultSeq(2), Method: BalancedDelay}, clk, false)
	if err != nil {
		t.Fatal(err)
	}
	refined, _, err := Evaluate(n, Options{Stages: 4, Seq: lib.DefaultSeq(2), Method: BalancedDelay, Refine: true}, clk, false)
	if err != nil {
		t.Fatal(err)
	}
	if refined.Cycle > plain.Cycle {
		t.Fatalf("refinement made the cycle worse: %.1f -> %.1f FO4",
			plain.Cycle.FO4(), refined.Cycle.FO4())
	}
	// Refinement optimizes a pre-register-insertion estimate; allow a
	// small tolerance on the final measured imbalance.
	if RefinedImbalance(refined.StageDelays) > RefinedImbalance(plain.StageDelays)+0.05 {
		t.Fatalf("imbalance grew: %.3f -> %.3f",
			RefinedImbalance(plain.StageDelays), RefinedImbalance(refined.StageDelays))
	}
}

func TestRefinePreservesFunction(t *testing.T) {
	lib := cell.RichASIC()
	ad, err := circuits.CarryLookahead(lib, 8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Pipeline(ad.N, Options{Stages: 3, Seq: lib.DefaultSeq(2), Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	// Monotone stages survive refinement.
	for _, g := range p.Gates() {
		for _, in := range g.In {
			if fi := p.Net(in).Driver; fi != netlist.None && p.Gate(fi).Stage > g.Stage {
				t.Fatal("refinement broke stage monotonicity")
			}
		}
	}
	// Stream equivalence against the combinational original.
	combSim, err := netlist.NewSimulator(ad.N)
	if err != nil {
		t.Fatal(err)
	}
	pipeSim, err := netlist.NewSimulator(p)
	if err != nil {
		t.Fatal(err)
	}
	const stages = 3
	var refs [][]bool
	for c := 0; c < 25+stages; c++ {
		v := uint64(c*37+5) & 0xff
		in := map[string]bool{"cin": c%3 == 0}
		netlist.WordToInputs(in, "a", v, 8)
		netlist.WordToInputs(in, "b", v^0x5a, 8)
		out, err := combSim.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, append([]bool(nil), out...))
		if _, err := pipeSim.Step(in); err != nil {
			t.Fatal(err)
		}
		if c >= stages {
			for i, id := range p.Outputs() {
				if pipeSim.Value(id) != refs[c-stages][i] {
					t.Fatalf("cycle %d output %d mismatch", c, i)
				}
			}
		}
	}
}

func TestRefinedImbalanceMetric(t *testing.T) {
	if got := RefinedImbalance([]units.Tau{10, 10, 10}); got != 1 {
		t.Fatalf("balanced imbalance = %g, want 1", got)
	}
	if got := RefinedImbalance([]units.Tau{10, 30, 20}); got != 1.5 {
		t.Fatalf("imbalance = %g, want 1.5", got)
	}
	if RefinedImbalance(nil) != 1 {
		t.Fatal("empty slice should report 1")
	}
}
