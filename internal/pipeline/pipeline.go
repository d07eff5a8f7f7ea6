// Package pipeline implements the paper's dominant speed factor (section
// 4, x4.00): cutting a combinational netlist into N register-separated
// stages. It provides the stage-assignment algorithms (delay-balanced cuts
// vs. naive level slicing), register insertion with data-alignment chains,
// per-stage delay extraction, cycle-time computation for edge-triggered
// and latch-based (time-borrowing) clocking, and the section 4.1 workload
// model of why dependent, branchy work (bus interfaces) cannot be
// pipelined profitably.
package pipeline

import (
	"fmt"
	"strconv"

	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/units"
)

// CutMethod selects how gates are assigned to stages.
type CutMethod int

const (
	// BalancedDelay places stage boundaries at equal fractions of the
	// worst-path arrival time — what careful custom retiming achieves
	// ("balance the logic in pipeline stages after placement").
	BalancedDelay CutMethod = iota
	// NaiveLevels slices by topological gate level, ignoring per-gate
	// delay — the unbalanced cut of a quick ASIC job.
	NaiveLevels
)

func (m CutMethod) String() string {
	if m == NaiveLevels {
		return "naive-levels"
	}
	return "balanced-delay"
}

// Options configures pipelining.
type Options struct {
	// Stages is the number of pipeline stages (>= 1).
	Stages int
	// Seq is the register cell to insert at stage boundaries.
	Seq *cell.SeqCell
	// Method selects the cut algorithm.
	Method CutMethod
	// Refine enables retiming-lite after the initial cut: gates are
	// moved across stage boundaries while that shortens the worst
	// stage (the custom "balance after placement" capability).
	Refine bool
}

// Pipeline cuts the combinational netlist n into opt.Stages stages,
// returning a new netlist with registers inserted at stage boundaries
// (including data-alignment register chains on signals that skip stages,
// and capture registers aligning every output to the final stage).
//
// The input must be purely combinational; registered designs should be
// pipelined between their existing register boundaries instead.
func Pipeline(n *netlist.Netlist, opt Options) (*netlist.Netlist, error) {
	if n.NumRegs() != 0 {
		return nil, fmt.Errorf("pipeline: %s already has registers", n.Name)
	}
	if opt.Stages < 1 {
		return nil, fmt.Errorf("pipeline: stage count %d < 1", opt.Stages)
	}
	if opt.Seq == nil {
		return nil, fmt.Errorf("pipeline: no sequential cell given")
	}
	order, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	stageOf, err := assignStages(n, opt, order)
	if err != nil {
		return nil, err
	}
	if opt.Refine {
		refineStages(n, stageOf, opt.Stages, order)
	}

	out := netlist.New(n.Name + "_p" + strconv.Itoa(opt.Stages))

	// have[int(net)*opt.Stages+s] is the new net carrying original net
	// `net` at stage s ("as seen by logic in stage s"), or None.
	have := make([]netlist.NetID, n.NumNets()*opt.Stages)
	for i := range have {
		have[i] = netlist.None
	}
	slot := func(id netlist.NetID, s int) *netlist.NetID { return &have[int(id)*opt.Stages+s] }

	for _, id := range n.Inputs() {
		*slot(id, 0) = out.AddInput(n.Net(id).Name)
	}

	// atStage returns the new net carrying original net `id` for use in
	// stage s, inserting alignment registers as needed. The base stage
	// of a net is its driver's stage (0 for PIs).
	var atStage func(id netlist.NetID, s int) (netlist.NetID, error)
	atStage = func(id netlist.NetID, s int) (netlist.NetID, error) {
		if net := *slot(id, s); net != netlist.None {
			return net, nil
		}
		if s <= 0 {
			return netlist.None, fmt.Errorf("pipeline: net %s needed before it is produced", n.Net(id).Name)
		}
		// Find the nearest earlier stage where the value exists.
		prev, err := atStage(id, s-1) // recursion bottoms out at base stage
		if err != nil {
			return netlist.None, err
		}
		q := out.AddReg(opt.Seq, prev)
		r := out.Reg(out.Net(q).DriverReg)
		r.Stage = s
		// Alignment registers sit with the logic producing the value,
		// so they do not add floorplan hops of their own.
		r.Block = blockOf(out, prev)
		out.Net(q).Name = n.Net(id).Name + "_s" + strconv.Itoa(s)
		*slot(id, s) = q
		return q, nil
	}

	var ins []netlist.NetID // AddGate copies the pins, so one buffer serves every gate
	for _, gid := range order {
		g := n.Gate(gid)
		s := stageOf[gid]
		ins = ins[:0]
		for _, in := range g.In {
			net, err := atStage(in, s)
			if err != nil {
				return nil, err
			}
			ins = append(ins, net)
		}
		newOut, err := out.AddGate(g.Cell, ins...)
		if err != nil {
			return nil, err
		}
		ng := out.Gate(out.Net(newOut).Driver)
		ng.Block = g.Block
		ng.Stage = s
		*slot(g.Out, s) = newOut
	}

	// Outputs: align everything to the final stage and capture it.
	last := opt.Stages - 1
	for _, id := range n.Outputs() {
		net, err := atStage(id, last)
		if err != nil {
			return nil, err
		}
		q := out.AddReg(opt.Seq, net)
		r := out.Reg(out.Net(q).DriverReg)
		r.Stage = opt.Stages
		r.Block = blockOf(out, net)
		out.MarkOutput(q)
		out.Net(q).PortLoad = n.Net(id).PortLoad
	}
	if err := out.Check(); err != nil {
		return nil, fmt.Errorf("pipeline: produced invalid netlist: %w", err)
	}
	return out, nil
}

// blockOf returns the floorplan block of a net's driver (gate or
// register), or the empty block for primary inputs.
func blockOf(n *netlist.Netlist, id netlist.NetID) string {
	nt := n.Net(id)
	if nt.Driver != netlist.None {
		return n.Gate(nt.Driver).Block
	}
	if nt.DriverReg != netlist.None {
		return n.Reg(nt.DriverReg).Block
	}
	return ""
}

// assignStages maps every gate to a stage, monotone along edges: the
// result is indexed by GateID. order is n's topological gate order.
func assignStages(n *netlist.Netlist, opt Options, order []netlist.GateID) ([]int, error) {
	stageOf := make([]int, n.NumGates())
	switch opt.Method {
	case NaiveLevels:
		level := make([]int, n.NumGates())
		maxLevel := 0
		for _, gid := range order {
			l := 0
			for _, in := range n.Gate(gid).In {
				if fi := n.Net(in).Driver; fi != netlist.None && level[fi]+1 > l {
					l = level[fi] + 1
				}
			}
			level[gid] = l
			if l > maxLevel {
				maxLevel = l
			}
		}
		span := float64(maxLevel + 1)
		for gid, l := range level {
			s := int(float64(l) / span * float64(opt.Stages))
			if s >= opt.Stages {
				s = opt.Stages - 1
			}
			stageOf[gid] = s
		}
	default: // BalancedDelay
		r, err := sta.Analyze(n, sta.Options{})
		if err != nil {
			return nil, err
		}
		total := float64(r.WorstComb)
		if total <= 0 {
			total = 1
		}
		for _, gid := range order {
			g := n.Gate(gid)
			a := float64(r.Arrival[g.Out])
			s := int(a / total * float64(opt.Stages))
			if s >= opt.Stages {
				s = opt.Stages - 1
			}
			// Monotonicity along edges.
			for _, in := range g.In {
				if fi := n.Net(in).Driver; fi != netlist.None && stageOf[fi] > s {
					s = stageOf[fi]
				}
			}
			stageOf[gid] = s
		}
	}
	return stageOf, nil
}

// StageDelays extracts, from a timing analysis of a pipelined netlist, the
// worst endpoint delay (including launch clock-to-Q and capture setup) of
// each stage 0..N-1. Registers with Stage == s capture the logic of stage
// s-1; primary outputs belong to the final stage.
func StageDelays(n *netlist.Netlist, r *sta.Result, stages int) []units.Tau {
	d := make([]units.Tau, stages)
	bump := func(s int, t units.Tau) {
		if s >= 0 && s < stages && t > d[s] {
			d[s] = t
		}
	}
	for _, reg := range n.Regs() {
		bump(reg.Stage-1, r.Arrival[reg.D]+reg.Cell.Setup)
	}
	for _, id := range n.Outputs() {
		nt := n.Net(id)
		if nt.DriverReg != netlist.None {
			continue // captured output: already counted via the register
		}
		bump(stages-1, r.Arrival[id])
	}
	return d
}

// FFCycle is the minimum cycle under edge-triggered clocking: the worst
// stage delay divided by the skew headroom.
func FFCycle(stage []units.Tau, clk sta.Clocking) units.Tau {
	worst := units.Tau(0)
	for _, d := range stage {
		if d > worst {
			worst = d
		}
	}
	return units.Tau(float64(worst+clk.JitterTau) / (1 - clk.SkewFrac))
}

// BorrowedCycle is the minimum cycle under transparent-latch clocking
// with time borrowing of up to half a cycle across each internal stage
// boundary (the two-phase latch budget). A long stage may slip its data
// past the nominal boundary as long as downstream slack absorbs it; the
// pipeline's entry and exit are hard boundaries. Multi-phase clocking
// with time borrowing is exactly what the paper says ASIC tools have
// problems with (section 4.1).
//
// The minimum feasible cycle is found by binary search on the cumulative
// arrival recurrence A_k = max(k*C, A_{k-1}) + d_k with the constraints
// A_k <= (k+1)*C + C/2 internally and A_{N-1} <= N*C at the exit.
func BorrowedCycle(stage []units.Tau, clk sta.Clocking) units.Tau {
	if len(stage) == 0 {
		return 0
	}
	feasible := func(c float64) bool {
		if c <= 0 {
			return false
		}
		arrival := 0.0
		for k, d := range stage {
			start := float64(k) * c
			if arrival > start {
				start = arrival
			}
			arrival = start + float64(d)
			limit := float64(k+1)*c + c/2
			if k == len(stage)-1 {
				limit = float64(len(stage)) * c
			}
			if arrival > limit {
				return false
			}
		}
		return true
	}
	// Bracket: the FF cycle is always feasible; the global average is a
	// lower bound.
	hi := float64(FFCycle(stage, sta.Clocking{}))
	lo := 0.0
	for _, d := range stage {
		lo += float64(d)
	}
	lo /= float64(len(stage))
	for i := 0; i < 60 && hi-lo > 1e-9*hi; i++ {
		mid := (lo + hi) / 2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return units.Tau((hi + float64(clk.JitterTau)) / (1 - clk.SkewFrac))
}

// Report summarizes a pipelining run.
type Report struct {
	Stages      int
	Method      CutMethod
	StageDelays []units.Tau
	// CombDelay is the unpipelined end-to-end logic delay.
	CombDelay units.Tau
	// Cycle is the achievable cycle (FF clocking unless borrowing).
	Cycle units.Tau
	// Speedup is combinational delay over cycle: the throughput gain
	// versus an unpipelined implementation clocked at its full delay
	// plus one register overhead.
	Speedup float64
	// OverheadFrac is the fraction of the cycle spent outside logic.
	OverheadFrac float64
	// Regs is the number of registers in the pipelined netlist.
	Regs int
}

func (r Report) String() string {
	return fmt.Sprintf("%d stages (%v): cycle %.1f FO4, speedup %.2fx, overhead %.0f%%, %d regs",
		r.Stages, r.Method, r.Cycle.FO4(), r.Speedup, 100*r.OverheadFrac, r.Regs)
}

// Evaluate pipelines a combinational netlist at the given depth and
// reports achievable cycle time and speedup under the clocking.
func Evaluate(n *netlist.Netlist, opt Options, clk sta.Clocking, borrow bool) (Report, *netlist.Netlist, error) {
	base, err := sta.Analyze(n, sta.Options{})
	if err != nil {
		return Report{}, nil, err
	}
	p, err := Pipeline(n, opt)
	if err != nil {
		return Report{}, nil, err
	}
	r, err := sta.Analyze(p, sta.Options{})
	if err != nil {
		return Report{}, nil, err
	}
	stages := StageDelays(p, r, opt.Stages)
	var cycle units.Tau
	if borrow {
		cycle = BorrowedCycle(stages, clk)
	} else {
		cycle = FFCycle(stages, clk)
	}

	// The unpipelined reference also pays one register overhead and the
	// same skew: a single-stage "pipeline".
	ref := units.Tau(float64(base.WorstComb+opt.Seq.Setup+opt.Seq.ClkToQ) / (1 - clk.SkewFrac))

	worstLogic := units.Tau(0)
	for _, d := range stages {
		if d > worstLogic {
			worstLogic = d
		}
	}
	rep := Report{
		Stages:      opt.Stages,
		Method:      opt.Method,
		StageDelays: stages,
		CombDelay:   base.WorstComb,
		Cycle:       cycle,
		Speedup:     float64(ref) / float64(cycle),
		Regs:        p.NumRegs(),
	}
	if cycle > 0 {
		// Logic content of the limiting stage, excluding launch/capture
		// overhead.
		rep.OverheadFrac = float64(cycle-(worstLogic-opt.Seq.Setup-opt.Seq.ClkToQ)) / float64(cycle)
	}
	return rep, p, nil
}
