package synth

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// MapOptions configures technology mapping.
type MapOptions struct {
	// Objective selects the covering cost: delay (critical-path depth
	// under nominal loading) or area.
	Objective Objective
}

// Objective is the mapping cost function.
type Objective int

// Mapping objectives.
const (
	MinDelay Objective = iota
	MinArea
)

// Map re-expresses the combinational logic of n onto the target library:
// decompose to an INV/NAND2 subject graph, then cover it with library
// patterns by dynamic programming. Registers are preserved (re-created
// with the target library's default sequential cell at the same drive).
//
// The target library must provide at least INV and NAND2.
func Map(n *netlist.Netlist, target *cell.Library, opt MapOptions) (*netlist.Netlist, error) {
	if !target.Has(cell.FuncInv) || !target.Has(cell.FuncNand2) {
		return nil, fmt.Errorf("synth: target library %s lacks the INV/NAND2 basis", target.Name)
	}
	g, err := buildSubject(n)
	if err != nil {
		return nil, err
	}

	// Usable patterns: those whose function exists in the target.
	var pats []pattern
	for _, p := range patternSet() {
		if target.Has(p.f) {
			pats = append(pats, p)
		}
	}

	// nominalDelay estimates a cell's stage delay at effort-4 loading.
	nominalDelay := func(f cell.Func) float64 {
		c := target.Smallest(f)
		return float64(c.P) + c.G*cell.TargetEffortDelay
	}
	nominalArea := func(f cell.Func) float64 { return target.Smallest(f).Area }

	type choice struct {
		pat  int     // index into pats
		bind binding // leaf nodes in pin order
	}
	// DP over nodes in id order (construction order is topological).
	cost := make([]float64, len(g.nodes))
	best := make([]choice, len(g.nodes))
	for i := range best {
		best[i].pat = -1
	}
	var binds []binding
	for id := range g.nodes {
		if g.isLeaf(id) {
			cost[id] = 0
			continue
		}
		cost[id] = math.Inf(1)
		for pi, p := range pats {
			binds = g.matches(p, id, binds)
			for _, bind := range binds {
				var c float64
				switch opt.Objective {
				case MinArea:
					c = nominalArea(p.f)
					for _, leaf := range bind.leaves() {
						c += cost[leaf] / math.Max(1, float64(g.nodes[leaf].fanout))
					}
				default:
					c = nominalDelay(p.f)
					worst := 0.0
					for _, leaf := range bind.leaves() {
						worst = math.Max(worst, cost[leaf])
					}
					c += worst
				}
				if c < cost[id] {
					cost[id] = c
					best[id] = choice{pat: pi, bind: bind}
				}
			}
		}
		if best[id].pat < 0 {
			return nil, fmt.Errorf("synth: node %d uncoverable (pattern set incomplete)", id)
		}
	}

	// Build the mapped netlist from the chosen cover, starting at the
	// original design's endpoints.
	out := netlist.New(n.Name + "@" + target.Name)
	mapped := make(map[int]netlist.NetID) // subject node -> new net

	// Recreate primary inputs in original order.
	for _, id := range n.Inputs() {
		mapped[g.outOf[id]] = out.AddInput(n.Net(id).Name)
	}
	// Pre-allocate register Q nets.
	type regPlan struct {
		src  *netlist.Reg
		q    netlist.NetID
		cell *cell.SeqCell
	}
	var regs []regPlan
	for _, r := range n.Regs() {
		q := out.AllocNet(n.Net(r.Q).Name)
		seq := target.DefaultSeq(r.Cell.Drive)
		if seq == nil {
			return nil, fmt.Errorf("synth: target library %s has no sequential cells", target.Name)
		}
		regs = append(regs, regPlan{src: r, q: q, cell: seq})
		mapped[g.outOf[r.Q]] = q
	}

	var emit func(id int) (netlist.NetID, error)
	emit = func(id int) (netlist.NetID, error) {
		if net, ok := mapped[id]; ok {
			return net, nil
		}
		ch := best[id]
		if ch.pat < 0 {
			return netlist.None, fmt.Errorf("synth: no cover chosen for node %d", id)
		}
		p := pats[ch.pat]
		ins := make([]netlist.NetID, ch.bind.n)
		for i, leaf := range ch.bind.leaves() {
			net, err := emit(leaf)
			if err != nil {
				return netlist.None, err
			}
			ins[i] = net
		}
		c := target.Smallest(p.f)
		net, err := out.AddGate(c, ins...)
		if err != nil {
			return netlist.None, err
		}
		out.Gate(out.Net(net).Driver).Block = g.nodes[id].block
		mapped[id] = net
		return net, nil
	}

	// Emit logic for all endpoints: register D inputs and primary
	// outputs, in the original declaration order for determinism.
	for _, rp := range regs {
		d, err := emit(g.outOf[rp.src.D])
		if err != nil {
			return nil, err
		}
		rid, err := out.AddRegTo(rp.cell, d, rp.q)
		if err != nil {
			return nil, err
		}
		out.Reg(rid).Block = rp.src.Block
	}
	for _, id := range n.Outputs() {
		net, err := emit(g.outOf[id])
		if err != nil {
			return nil, err
		}
		out.MarkOutput(net)
		out.Net(net).PortLoad = n.Net(id).PortLoad
	}
	if err := out.Check(); err != nil {
		return nil, fmt.Errorf("synth: mapped netlist invalid: %w", err)
	}
	return out, nil
}

// CoverStats summarizes a mapping for reports: cells used per function.
func CoverStats(n *netlist.Netlist) string {
	counts := map[string]int{}
	for _, g := range n.Gates() {
		counts[g.Cell.Func.String()]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s:%d ", k, counts[k])
	}
	return s
}
