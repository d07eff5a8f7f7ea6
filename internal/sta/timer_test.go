package sta

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/units"
)

// randomTimingDAG builds a seeded random netlist with every feature the
// analyzer reads: primary inputs, gates with repeated input nets,
// registers whose Q pins feed later logic, wire and port loads,
// distributed wire delay, and both endpoint kinds.
func randomTimingDAG(rng *rand.Rand, gates int) *netlist.Netlist {
	n := netlist.New("dag")
	var sigs []netlist.NetID
	for i := 0; i < 6; i++ {
		sigs = append(sigs, n.AddInput(string(rune('a'+i))))
	}
	funcs := []cell.Func{cell.FuncInv, cell.FuncNand2, cell.FuncNor3, cell.FuncAoi21, cell.FuncXor2, cell.FuncMaj3, cell.FuncBuf}
	ff := cell.ASICFlipFlop(2)
	for g := 0; g < gates; g++ {
		f := funcs[rng.Intn(len(funcs))]
		c := cell.NewStatic(f, 1+3*rng.Float64())
		in := make([]netlist.NetID, c.Inputs())
		for i := range in {
			// Favor recent signals so paths get deep.
			k := len(sigs) - 1 - rng.Intn(min(len(sigs), 12))
			in[i] = sigs[k]
		}
		out := n.MustGate(c, in...)
		sigs = append(sigs, out)
		if rng.Intn(10) == 0 {
			sigs = append(sigs, n.AddReg(ff, out))
		}
	}
	for _, nt := range n.Nets() {
		if rng.Intn(3) == 0 {
			nt.WireCap = units.Cap(3 * rng.Float64())
		}
		if rng.Intn(5) == 0 {
			nt.ExtraDelay = units.Tau(rng.Float64())
		}
	}
	for i := 0; i < 4; i++ {
		id := sigs[len(sigs)-1-rng.Intn(len(sigs)/2)]
		if n.Net(id).IsInput {
			continue
		}
		n.MarkOutput(id)
		if i%2 == 0 {
			n.Net(id).PortLoad = units.Cap(2 + rng.Float64())
		}
	}
	return n
}

// sameResult fails unless got equals want field for field, floats bit
// for bit.
func sameResult(t *testing.T, step int, got, want *Result) {
	t.Helper()
	bits := func(x units.Tau) uint64 { return math.Float64bits(float64(x)) }
	if len(got.Arrival) != len(want.Arrival) {
		t.Fatalf("step %d: %d arrivals, want %d", step, len(got.Arrival), len(want.Arrival))
	}
	for i := range want.Arrival {
		if bits(got.Arrival[i]) != bits(want.Arrival[i]) {
			t.Fatalf("step %d: net %d arrival %v, fresh analysis %v", step, i, got.Arrival[i], want.Arrival[i])
		}
	}
	if bits(got.WorstComb) != bits(want.WorstComb) || bits(got.WorstEndpointDelay) != bits(want.WorstEndpointDelay) ||
		got.WorstEnd != want.WorstEnd || got.WorstEndKind != want.WorstEndKind {
		t.Fatalf("step %d: worst %v/%v at %d (%v), fresh analysis %v/%v at %d (%v)", step,
			got.WorstComb, got.WorstEndpointDelay, got.WorstEnd, got.WorstEndKind,
			want.WorstComb, want.WorstEndpointDelay, want.WorstEnd, want.WorstEndKind)
	}
	if len(got.Critical) != len(want.Critical) {
		t.Fatalf("step %d: critical path of %d steps, fresh analysis %d", step, len(got.Critical), len(want.Critical))
	}
	for i, w := range want.Critical {
		g := got.Critical[i]
		if g.Gate != w.Gate || g.Net != w.Net || g.What() != w.What() ||
			bits(g.Arrival) != bits(w.Arrival) || bits(g.Delay) != bits(w.Delay) {
			t.Fatalf("step %d: critical step %d %+v, fresh analysis %+v", step, i, g, w)
		}
	}
}

// TestTimerMatchesAnalyze is the incremental timer's oracle: after every
// cell swap on seeded random DAGs, its result equals a fresh Analyze of
// the same netlist exactly. Swaps go up and down in drive, hit gates on
// and off the critical path, and include no-op swaps.
func TestTimerMatchesAnalyze(t *testing.T) {
	opts := []Options{{}, {InputArrival: 3, OutputLoad: 5}}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := randomTimingDAG(rng, 60+rng.Intn(140))
		opt := opts[seed%2]
		tm, err := NewTimer(n, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fresh := func() *Result {
			r, err := Analyze(n, opt)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return r
		}
		sameResult(t, 0, tm.Result(), fresh())
		for step := 1; step <= 150; step++ {
			var id netlist.GateID
			if crit := tm.Result().Critical; rng.Intn(2) == 0 && len(crit) > 1 {
				id = crit[1+rng.Intn(len(crit)-1)].Gate
			} else {
				id = netlist.GateID(rng.Intn(n.NumGates()))
			}
			old := n.Gate(id).Cell
			c := old
			if rng.Intn(8) != 0 {
				c = cell.NewStatic(old.Func, old.Drive*(0.6+0.9*rng.Float64()))
			}
			tm.SetCell(id, c)
			if n.Gate(id).Cell != c {
				t.Fatalf("seed %d step %d: SetCell did not install the cell", seed, step)
			}
			sameResult(t, step, tm.Result(), fresh())
		}
	}
}

// TestTimerRejectsWhatAnalyzeRejects: the timer's one full analysis
// fails exactly where Analyze does.
func TestTimerRejectsWhatAnalyzeRejects(t *testing.T) {
	n := netlist.New("no-endpoints")
	n.MustGate(cell.NewStatic(cell.FuncInv, 1), n.AddInput("a"))
	if _, err := NewTimer(n, Options{}); err == nil {
		t.Fatal("NewTimer accepted a netlist without endpoints")
	}
	dangling := netlist.New("dangling")
	dangling.MarkOutput(dangling.AllocNet("x"))
	if _, err := NewTimer(dangling, Options{}); err == nil {
		t.Fatal("NewTimer accepted a netlist that fails Check")
	}
}
