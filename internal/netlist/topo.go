package netlist

import (
	"errors"
	"fmt"
)

// ErrCombinationalCycle reports a loop in the combinational graph (a loop
// through registers is fine; one without any register is a design error).
var ErrCombinationalCycle = errors.New("netlist: combinational cycle")

// Levelize returns the gates in topological order of the combinational
// graph: every gate appears after all gates driving its inputs. Registers
// break dependencies (a register's Q is a timing start point).
func (n *Netlist) Levelize() ([]GateID, error) {
	indeg := make([]int, len(n.gates))
	for _, g := range n.gates {
		for _, in := range g.In {
			if n.nets[in].Driver != None {
				indeg[g.ID]++
			}
		}
	}
	// order doubles as the FIFO work queue: a gate is appended once
	// its last fanin has been, and order[i] is processed i-th.
	order := make([]GateID, 0, len(n.gates))
	for _, g := range n.gates {
		if indeg[g.ID] == 0 {
			order = append(order, g.ID)
		}
	}
	for i := 0; i < len(order); i++ {
		out := n.nets[n.gates[order[i]].Out]
		for _, p := range out.Sinks {
			indeg[p.Gate]--
			if indeg[p.Gate] == 0 {
				order = append(order, p.Gate)
			}
		}
	}
	if len(order) != len(n.gates) {
		return nil, fmt.Errorf("%w in %s: %d of %d gates unreachable from start points",
			ErrCombinationalCycle, n.Name, len(n.gates)-len(order), len(n.gates))
	}
	return order, nil
}

// Clone deep-copies the netlist structure. Cells are shared (they are
// immutable library entries); nets, gates, and registers are copied, so
// sizing and pipelining transforms can work on a clone without disturbing
// the original.
func (n *Netlist) Clone() *Netlist {
	c := &Netlist{Name: n.Name}
	c.nets = make([]*Net, len(n.nets))
	for i, nt := range n.nets {
		cp := *nt
		cp.Sinks = append([]Pin(nil), nt.Sinks...)
		cp.RegSinks = append([]RegID(nil), nt.RegSinks...)
		c.nets[i] = &cp
	}
	c.gates = make([]*Gate, len(n.gates))
	for i, g := range n.gates {
		cp := *g
		cp.In = append([]NetID(nil), g.In...)
		c.gates[i] = &cp
	}
	c.regs = make([]*Reg, len(n.regs))
	for i, r := range n.regs {
		cp := *r
		c.regs[i] = &cp
	}
	c.inputs = append([]NetID(nil), n.inputs...)
	c.outputs = append([]NetID(nil), n.outputs...)
	return c
}
