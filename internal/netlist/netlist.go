// Package netlist provides the gate-level intermediate representation the
// rest of the toolkit operates on: a directed graph of library gates and
// registers connected by nets, with primary inputs and outputs.
//
// The combinational timing graph runs from primary inputs and register
// outputs (Q pins) to primary outputs and register inputs (D pins).
// Registers therefore delimit pipeline stages; internal/pipeline inserts
// them and internal/sta measures the paths between them.
package netlist

import (
	"fmt"
	"strconv"

	"repro/internal/cell"
	"repro/internal/units"
)

// NetID identifies a net within one Netlist.
type NetID int

// GateID identifies a combinational gate within one Netlist.
type GateID int

// RegID identifies a register within one Netlist.
type RegID int

// None is the sentinel for "no gate/net/register".
const None = -1

// Pin locates one input pin of a gate.
type Pin struct {
	Gate GateID
	// Index is the input-pin index on the gate.
	Index int
}

// Net is a single electrical node: one driver, any number of sinks.
type Net struct {
	ID   NetID
	Name string

	// Driver is the gate driving this net, or None when the net is a
	// primary input or a register output.
	Driver GateID
	// DriverReg is the register whose Q pin drives this net, or None.
	DriverReg RegID

	// Sinks are the gate input pins this net feeds.
	Sinks []Pin
	// RegSinks are the registers whose D pins this net feeds.
	RegSinks []RegID

	// WireCap is the back-annotated interconnect capacitance on the
	// net, in minimum-inverter input-capacitance units. Zero before
	// placement; internal/place and wire-load models fill it in.
	WireCap units.Cap

	// PortLoad is extra capacitance on primary outputs (pad/next-block
	// loading).
	PortLoad units.Cap

	// ExtraDelay is the distributed-RC wire delay on this net beyond
	// what its lumped WireCap accounts for (the resistive-shielding and
	// repeater-chain component). internal/place fills it in from the
	// wire model; STA adds it after the driving gate's delay.
	ExtraDelay units.Tau

	// LengthMM is the estimated routed length, recorded by placement
	// back-annotation so wire-sizing passes can re-derive parasitics at
	// other widths.
	LengthMM float64

	// WidthMult is the wire width multiple the net is currently routed
	// at (1 = minimum width); set by annotation and wire sizing.
	WidthMult float64

	// IsInput and IsOutput mark primary ports.
	IsInput, IsOutput bool
}

// Gate is one combinational cell instance.
type Gate struct {
	ID   GateID
	Cell *cell.Cell
	In   []NetID
	Out  NetID

	// Block names the floorplan block this gate belongs to; empty means
	// unassigned. internal/place groups gates by block.
	Block string

	// Stage is the pipeline stage index assigned by internal/pipeline;
	// -1 when the netlist is unpipelined.
	Stage int
}

// Reg is one register (flip-flop or latch) instance.
type Reg struct {
	ID   RegID
	Cell *cell.SeqCell
	D, Q NetID
	// Block names the floorplan block, as for gates.
	Block string
	// Stage is the pipeline boundary index this register implements.
	Stage int
}

// Netlist is a flat gate-level design.
type Netlist struct {
	Name string

	gates []*Gate
	regs  []*Reg
	nets  []*Net

	inputs  []NetID
	outputs []NetID

	// netBlock, gateBlock and pinBlock hand out new nets, gates and gate
	// input slices from blocks, so building a netlist makes a few large
	// allocations rather than several per gate.
	netBlock  []Net
	gateBlock []Gate
	pinBlock  []NetID
}

// blockSize is how many nets or gates one block allocation holds.
const blockSize = 64

// New creates an empty netlist.
func New(name string) *Netlist {
	return &Netlist{Name: name}
}

// NumGates returns the number of combinational gates.
func (n *Netlist) NumGates() int { return len(n.gates) }

// NumRegs returns the number of registers.
func (n *Netlist) NumRegs() int { return len(n.regs) }

// NumNets returns the number of nets.
func (n *Netlist) NumNets() int { return len(n.nets) }

// Gate returns the gate with the given id.
func (n *Netlist) Gate(id GateID) *Gate { return n.gates[id] }

// Reg returns the register with the given id.
func (n *Netlist) Reg(id RegID) *Reg { return n.regs[id] }

// Net returns the net with the given id.
func (n *Netlist) Net(id NetID) *Net { return n.nets[id] }

// Gates returns the gate slice (callers must not reorder it).
func (n *Netlist) Gates() []*Gate { return n.gates }

// Regs returns the register slice (callers must not reorder it).
func (n *Netlist) Regs() []*Reg { return n.regs }

// Nets returns the net slice (callers must not reorder it).
func (n *Netlist) Nets() []*Net { return n.nets }

// Inputs returns the primary input nets.
func (n *Netlist) Inputs() []NetID { return n.inputs }

// Outputs returns the primary output nets.
func (n *Netlist) Outputs() []NetID { return n.outputs }

// newNet allocates a fresh net.
func (n *Netlist) newNet(name string) *Net {
	if len(n.netBlock) == 0 {
		n.netBlock = make([]Net, blockSize)
	}
	nt := &n.netBlock[0]
	n.netBlock = n.netBlock[1:]
	*nt = Net{ID: NetID(len(n.nets)), Name: name, Driver: None, DriverReg: None}
	n.nets = append(n.nets, nt)
	return nt
}

// newGate allocates a gate instance of c with a copy of the input nets.
func (n *Netlist) newGate(c *cell.Cell, in []NetID) *Gate {
	if len(n.gateBlock) == 0 {
		n.gateBlock = make([]Gate, blockSize)
	}
	if cap(n.pinBlock)-len(n.pinBlock) < len(in) {
		n.pinBlock = make([]NetID, 0, max(4*blockSize, len(in)))
	}
	start := len(n.pinBlock)
	n.pinBlock = append(n.pinBlock, in...)
	g := &n.gateBlock[0]
	n.gateBlock = n.gateBlock[1:]
	// The full slice expression caps In at its own pins, so an append to
	// it cannot run into the next gate's.
	*g = Gate{ID: GateID(len(n.gates)), Cell: c, In: n.pinBlock[start:len(n.pinBlock):len(n.pinBlock)], Stage: None}
	return g
}

// numbered spells the default net name prefix+id ("g12", "r3") in one
// allocation.
func numbered(prefix byte, id int) string {
	var buf [24]byte
	return string(strconv.AppendInt(append(buf[:0], prefix), int64(id), 10))
}

// AddInput creates a primary input net.
func (n *Netlist) AddInput(name string) NetID {
	nt := n.newNet(name)
	nt.IsInput = true
	n.inputs = append(n.inputs, nt.ID)
	return nt.ID
}

// MarkOutput marks an existing net as a primary output.
func (n *Netlist) MarkOutput(id NetID) {
	nt := n.nets[id]
	if nt.IsOutput {
		return
	}
	nt.IsOutput = true
	n.outputs = append(n.outputs, id)
}

// AddGate instantiates c with the given input nets, creating and returning
// the output net. The number of inputs must match the cell function.
func (n *Netlist) AddGate(c *cell.Cell, in ...NetID) (NetID, error) {
	if len(in) != c.Inputs() {
		return None, fmt.Errorf("netlist: %s wants %d inputs, got %d", c.Name(), c.Inputs(), len(in))
	}
	g := n.newGate(c, in)
	out := n.newNet(numbered('g', int(g.ID)))
	out.Driver = g.ID
	g.Out = out.ID
	n.gates = append(n.gates, g)
	for pin, id := range in {
		n.nets[id].Sinks = append(n.nets[id].Sinks, Pin{Gate: g.ID, Index: pin})
	}
	return out.ID, nil
}

// MustGate is AddGate for construction code where a pin-count mismatch is a
// programming error.
func (n *Netlist) MustGate(c *cell.Cell, in ...NetID) NetID {
	id, err := n.AddGate(c, in...)
	if err != nil {
		panic(err)
	}
	return id
}

// AllocNet pre-allocates an undriven net. The caller must later attach a
// driver (e.g. via AddRegTo); Check fails while the net is dangling.
// Netlist-rebuilding tools use this to create register Q nets before the
// logic computing the D inputs exists.
func (n *Netlist) AllocNet(name string) NetID {
	return n.newNet(name).ID
}

// AddRegTo instantiates a register fed by net d whose Q output is the
// pre-allocated net q (from AllocNet). It returns an error if q already
// has a driver.
func (n *Netlist) AddRegTo(c *cell.SeqCell, d, q NetID) (RegID, error) {
	nq := n.nets[q]
	if nq.Driver != None || nq.DriverReg != None || nq.IsInput {
		return None, fmt.Errorf("netlist: net %s (%d) already driven", nq.Name, q)
	}
	r := &Reg{ID: RegID(len(n.regs)), Cell: c, D: d, Q: q, Stage: None}
	nq.DriverReg = r.ID
	n.regs = append(n.regs, r)
	n.nets[d].RegSinks = append(n.nets[d].RegSinks, r.ID)
	return r.ID, nil
}

// AddReg instantiates a register fed by net d, creating and returning the
// Q-output net.
func (n *Netlist) AddReg(c *cell.SeqCell, d NetID) NetID {
	r := &Reg{ID: RegID(len(n.regs)), Cell: c, D: d, Stage: None}
	q := n.newNet(numbered('r', int(r.ID)))
	q.DriverReg = r.ID
	r.Q = q.ID
	n.regs = append(n.regs, r)
	n.nets[d].RegSinks = append(n.nets[d].RegSinks, r.ID)
	return q.ID
}

// RewireRegD moves register id's D pin from its current net to `to`
// (used by hold-fix buffering to give a racing register a private,
// padded input).
func (n *Netlist) RewireRegD(id RegID, to NetID) {
	r := n.regs[id]
	old := n.nets[r.D]
	keep := old.RegSinks[:0]
	for _, rs := range old.RegSinks {
		if rs != id {
			keep = append(keep, rs)
		}
	}
	old.RegSinks = keep
	r.D = to
	n.nets[to].RegSinks = append(n.nets[to].RegSinks, id)
}

// ReplaceCell swaps the cell of a gate for another implementing the same
// function with the same pin count.
func (n *Netlist) ReplaceCell(id GateID, c *cell.Cell) error {
	g := n.gates[id]
	if c.Inputs() != g.Cell.Inputs() {
		return fmt.Errorf("netlist: cannot replace %s with %s: pin count %d != %d",
			g.Cell.Name(), c.Name(), g.Cell.Inputs(), c.Inputs())
	}
	g.Cell = c
	return nil
}

// Load computes the total capacitive load on a net: the input capacitance
// of every gate pin and register D pin it feeds, plus back-annotated wire
// capacitance and any primary-output load.
func (n *Netlist) Load(id NetID) units.Cap {
	nt := n.nets[id]
	load := nt.WireCap + nt.PortLoad
	for _, p := range nt.Sinks {
		load += n.gates[p.Gate].Cell.InputCap()
	}
	for _, r := range nt.RegSinks {
		load += n.regs[r].Cell.DCap
	}
	return load
}

// TotalArea sums the cell area of all gates and registers.
func (n *Netlist) TotalArea() float64 {
	a := 0.0
	for _, g := range n.gates {
		a += g.Cell.Area
	}
	for _, r := range n.regs {
		a += r.Cell.Area
	}
	return a
}

// Check validates structural invariants: every net has exactly one driver
// (gate, register, or primary input), every gate pin count matches its
// cell, and all ids are in range.
func (n *Netlist) Check() error {
	for _, nt := range n.nets {
		drivers := 0
		if nt.Driver != None {
			drivers++
		}
		if nt.DriverReg != None {
			drivers++
		}
		if nt.IsInput {
			drivers++
		}
		if drivers != 1 {
			return fmt.Errorf("netlist %s: net %s (%d) has %d drivers", n.Name, nt.Name, nt.ID, drivers)
		}
		for _, p := range nt.Sinks {
			if int(p.Gate) >= len(n.gates) || p.Gate < 0 {
				return fmt.Errorf("netlist %s: net %d sinks out-of-range gate %d", n.Name, nt.ID, p.Gate)
			}
			g := n.gates[p.Gate]
			if p.Index >= len(g.In) || g.In[p.Index] != nt.ID {
				return fmt.Errorf("netlist %s: net %d sink pin mismatch on gate %d", n.Name, nt.ID, p.Gate)
			}
		}
	}
	for _, g := range n.gates {
		if len(g.In) != g.Cell.Inputs() {
			return fmt.Errorf("netlist %s: gate %d (%s) has %d pins, cell wants %d",
				n.Name, g.ID, g.Cell.Name(), len(g.In), g.Cell.Inputs())
		}
		if n.nets[g.Out].Driver != g.ID {
			return fmt.Errorf("netlist %s: gate %d output net back-reference broken", n.Name, g.ID)
		}
	}
	for _, r := range n.regs {
		if n.nets[r.Q].DriverReg != r.ID {
			return fmt.Errorf("netlist %s: reg %d Q net back-reference broken", n.Name, r.ID)
		}
	}
	return nil
}

// Stats summarizes a netlist for reports.
type Stats struct {
	Gates, Regs, Nets int
	Inputs, Outputs   int
	Area              float64
	MaxFanout         int
	LogicDepth        int // gate count on the deepest combinational path
	CellsByFunc       map[string]int
}

// Summary computes netlist statistics. Logic depth requires an acyclic
// combinational graph; on a combinational cycle it reports depth -1.
func (n *Netlist) Summary() Stats {
	s := Stats{
		Gates: len(n.gates), Regs: len(n.regs), Nets: len(n.nets),
		Inputs: len(n.inputs), Outputs: len(n.outputs),
		Area:        n.TotalArea(),
		CellsByFunc: make(map[string]int),
	}
	for _, nt := range n.nets {
		if fo := len(nt.Sinks) + len(nt.RegSinks); fo > s.MaxFanout {
			s.MaxFanout = fo
		}
	}
	for _, g := range n.gates {
		s.CellsByFunc[g.Cell.Func.String()]++
	}
	order, err := n.Levelize()
	if err != nil {
		s.LogicDepth = -1
		return s
	}
	depth := make([]int, len(n.gates))
	for _, id := range order {
		g := n.gates[id]
		d := 0
		for _, in := range g.In {
			if drv := n.nets[in].Driver; drv != None && depth[drv] >= d {
				d = depth[drv] + 1
			}
		}
		if d == 0 {
			d = 1
		}
		depth[g.ID] = d
		if d > s.LogicDepth {
			s.LogicDepth = d
		}
	}
	return s
}

func (n *Netlist) String() string {
	return fmt.Sprintf("%s: %d gates, %d regs, %d nets, %d in, %d out",
		n.Name, len(n.gates), len(n.regs), len(n.nets), len(n.inputs), len(n.outputs))
}
