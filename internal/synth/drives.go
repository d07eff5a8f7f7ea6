package synth

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/wire"
)

// SelectDrives walks the netlist and re-selects each gate's drive strength
// against its actual load (sink pins plus the wire-load estimate), and
// iterates to a fixpoint since resizing a gate changes the load its
// drivers see. This is the "initial logic synthesis chooses drive
// strengths using estimations for wire lengths" step of section 6.2.
//
// When wl is non-nil, each net's WireCap is refreshed from the wire-load
// model by fanout; pass nil to size against already-annotated parasitics
// (the post-layout resizing case).
func SelectDrives(n *netlist.Netlist, lib *cell.Library, wl *wire.LoadModel) error {
	if wl != nil {
		for _, nt := range n.Nets() {
			fanout := len(nt.Sinks) + len(nt.RegSinks)
			if fanout > 0 {
				nt.WireCap = wl.NetCap(fanout)
			}
		}
	}
	const maxIters = 12
	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for _, g := range n.Gates() {
			best, err := lib.ResizeForLoad(g.Cell, n.Load(g.Out))
			if err != nil {
				return fmt.Errorf("synth: sizing gate %d: %w", g.ID, err)
			}
			if best != g.Cell {
				g.Cell = best
				changed = true
			}
		}
		if !changed {
			return nil
		}
	}
	return nil
}

// InsertBuffers splits high-fanout nets by inserting buffer trees so that
// no gate sees an effort delay above the library target on its output.
// Sinks are distributed round-robin over the new buffers. Returns the
// number of buffers added.
func InsertBuffers(n *netlist.Netlist, lib *cell.Library) (int, error) {
	bufFunc := cell.FuncBuf
	if !lib.Has(bufFunc) {
		// Inverting libraries buffer with inverter pairs; to keep
		// polarity we insert two stages below.
		bufFunc = cell.FuncInv
	}
	big := lib.Largest(bufFunc)
	if big == nil {
		return 0, fmt.Errorf("synth: library %s has no buffer or inverter", lib.Name)
	}

	added := 0
	// Repeat until no net is overloaded: buffers inserted in one pass
	// can themselves need a second level, forming a tree.
	for pass := 0; pass < 8; pass++ {
		addedThisPass := 0
		// Iterate over a snapshot: inserting buffers appends gates.
		gateCount := n.NumGates()
		for i := 0; i < gateCount; i++ {
			g := n.Gate(netlist.GateID(i))
			driver := lib.Largest(g.Cell.Func)
			load := n.Load(g.Out)
			// Worst acceptable load for the largest available drive.
			limit := cell.TargetEffortDelay * driver.Drive * 2
			if float64(load) <= limit {
				continue
			}
			nt := n.Net(g.Out)
			sinks := append([]netlist.Pin(nil), nt.Sinks...)
			if len(sinks) < 4 {
				continue // load is one huge pin or wire; buffering won't split it
			}
			// Split sinks into groups, each driven by a buffer (or
			// inverter pair when the library lacks BUF).
			groups := int(float64(load)/limit) + 1
			if groups > len(sinks) {
				groups = len(sinks)
			}
			// Detach all sinks from the net.
			nt.Sinks = nil
			for gi := 0; gi < groups; gi++ {
				var bufOut netlist.NetID
				var err error
				if bufFunc == cell.FuncBuf {
					bufOut, err = n.AddGate(big, g.Out)
					addedThisPass++
				} else {
					var mid netlist.NetID
					mid, err = n.AddGate(big, g.Out)
					if err == nil {
						bufOut, err = n.AddGate(big, mid)
					}
					addedThisPass += 2
				}
				if err != nil {
					return added + addedThisPass, err
				}
				bg := n.Net(bufOut).Driver
				n.Gate(bg).Block = g.Block
				// Reattach this group's sinks to the buffer output.
				for si := gi; si < len(sinks); si += groups {
					p := sinks[si]
					n.Gate(p.Gate).In[p.Index] = bufOut
					bnt := n.Net(bufOut)
					bnt.Sinks = append(bnt.Sinks, p)
				}
			}
		}
		added += addedThisPass
		if addedThisPass == 0 {
			break
		}
	}
	if added > 0 {
		if err := n.Check(); err != nil {
			return added, fmt.Errorf("synth: buffering broke the netlist: %w", err)
		}
	}
	return added, nil
}
