package sta

import (
	"repro/internal/cell"
	"repro/internal/netlist"
)

// Timer is an incremental analyzer for loops that change one gate's cell
// at a time, as sensitivity sizing does. It is built from one full
// analysis; after a cell swap it re-evaluates only what the swap can
// move: the swapped gate's own delay, the loads its input pins put on
// its fanin nets (so those nets' drivers, gates or register Q), and then
// the fanout cone of every changed net in the cached topological order,
// stopping wherever an arrival comes out bit-identical. Its Result is at
// every point field-for-field what Analyze would return for the netlist
// as it stands.
type Timer struct {
	a     *analysis
	order []netlist.GateID
	pos   []int // pos[g] is gate g's index in order

	// queue is a min-heap of the topological positions of the gates
	// awaiting re-evaluation; queued marks them.
	queue  []int
	queued []bool

	res Result
}

// NewTimer analyzes n as Analyze does and keeps the topological order
// and arrivals for later incremental updates. The netlist's structure
// must not change while the timer is in use; cells change through
// SetCell only.
func NewTimer(n *netlist.Netlist, opt Options) (*Timer, error) {
	if err := n.Check(); err != nil {
		return nil, err
	}
	order, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	t := &Timer{
		a:      newAnalysis(n, opt),
		order:  order,
		pos:    make([]int, len(order)),
		queued: make([]bool, len(order)),
	}
	for i, id := range order {
		t.pos[id] = i
	}
	t.a.propagate(order)
	if err := t.a.finish(&t.res); err != nil {
		return nil, err
	}
	return t, nil
}

// Result returns the current analysis. The timer owns it: its Arrival
// and Critical are overwritten by the next SetCell.
func (t *Timer) Result() *Result { return &t.res }

// SetCell replaces gate id's cell with c, which must have the same pin
// count, and brings the analysis up to date.
func (t *Timer) SetCell(id netlist.GateID, c *cell.Cell) {
	n := t.a.n
	g := n.Gate(id)
	if g.Cell == c {
		return
	}
	g.Cell = c
	// g's input pins load its fanin nets: their drivers' delays move.
	for _, in := range g.In {
		nt := n.Net(in)
		switch {
		case nt.Driver != netlist.None:
			t.push(nt.Driver)
		case nt.DriverReg != netlist.None:
			if t.a.evalReg(n.Reg(nt.DriverReg)) {
				t.pushSinks(in)
			}
		}
	}
	t.push(id)
	for len(t.queue) > 0 {
		g := n.Gate(t.pop())
		if t.a.evalGate(g) {
			t.pushSinks(g.Out)
		}
	}
	// The endpoints are intact, so finish cannot fail.
	_ = t.a.finish(&t.res)
}

func (t *Timer) pushSinks(id netlist.NetID) {
	for _, p := range t.a.n.Net(id).Sinks {
		t.push(p.Gate)
	}
}

// push queues gate id for re-evaluation (once).
func (t *Timer) push(id netlist.GateID) {
	if t.queued[id] {
		return
	}
	t.queued[id] = true
	q := append(t.queue, t.pos[id])
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p] <= q[i] {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	t.queue = q
}

// pop removes and returns the queued gate earliest in topological order.
func (t *Timer) pop() netlist.GateID {
	q := t.queue
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < len(q) && q[l] < q[m] {
			m = l
		}
		if r := l + 1; r < len(q) && q[r] < q[m] {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	t.queue = q
	id := t.order[top]
	t.queued[id] = false
	return id
}
