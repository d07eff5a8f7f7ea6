// Package sta is the static timing analyzer: it propagates arrival times
// through the combinational graph of a netlist, extracts critical paths,
// and converts worst path delay plus sequencing overheads (setup,
// clock-to-Q, clock skew) into a minimum cycle time and clock frequency.
//
// All delays are in tau (see internal/units); reports convert to FO4 and,
// given a process, to picoseconds and MHz. The decomposition of cycle time
// into logic + latch overhead + skew is exactly the accounting the paper
// performs in sections 4 and 4.1.
package sta

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/units"
)

// Options configures an analysis run.
type Options struct {
	// InputArrival is the arrival time applied at every primary input
	// (time already consumed outside this block).
	InputArrival units.Tau

	// OutputLoad is additional load applied to primary output nets that
	// have no PortLoad annotation (a receiving gate plus wire).
	OutputLoad units.Cap
}

// Step is one hop of a timing path.
type Step struct {
	Gate    netlist.GateID // None for the start point
	Net     netlist.NetID
	Arrival units.Tau
	Delay   units.Tau // delay contributed by this hop

	// What the hop is, spelled only by What: the driving gate's cell,
	// or the start point's register cell or input net.
	cell  *cell.Cell
	start string
	reg   bool
}

// What names the hop for reports: the driving cell's name, or
// "regQ:<register cell>" / "PI:<input net>" at the start point.
func (s Step) What() string {
	switch {
	case s.cell != nil:
		return s.cell.Name()
	case s.reg:
		return "regQ:" + s.start
	}
	return "PI:" + s.start
}

// EndKind classifies a path endpoint.
type EndKind int

// Path endpoint kinds.
const (
	EndPrimaryOutput EndKind = iota
	EndRegisterD
)

// Result is the outcome of one analysis.
type Result struct {
	// Arrival holds the computed arrival time of every net (indexed by
	// NetID). Nets unreachable from a start point have arrival 0.
	Arrival []units.Tau

	// WorstComb is the worst arrival at any endpoint before endpoint
	// overhead (setup) is added.
	WorstComb units.Tau

	// WorstEndpointDelay is the worst arrival including destination
	// setup time where the endpoint is a register.
	WorstEndpointDelay units.Tau

	// WorstEnd identifies the worst endpoint net.
	WorstEnd     netlist.NetID
	WorstEndKind EndKind

	// Critical is the worst path, start to end.
	Critical []Step

	n *netlist.Netlist
}

// Analyze runs arrival-time propagation over the netlist. It returns an
// error when the combinational graph has a cycle or the netlist fails its
// structural check.
func Analyze(n *netlist.Netlist, opt Options) (*Result, error) {
	if err := n.Check(); err != nil {
		return nil, err
	}
	order, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	a := newAnalysis(n, opt)
	a.propagate(order)
	res := &Result{}
	if err := a.finish(res); err != nil {
		return nil, err
	}
	return res, nil
}

// analysis is the state of one arrival-time propagation, shared by
// Analyze and the incremental Timer so that both compute every arrival
// with the same expressions in the same order.
type analysis struct {
	n   *netlist.Netlist
	opt Options

	arrival []units.Tau
	// from[i] records the net whose arrival determined net i's
	// arrival, for path backtracking; None for start points.
	from []netlist.NetID
}

func newAnalysis(n *netlist.Netlist, opt Options) *analysis {
	a := &analysis{
		n:       n,
		opt:     opt,
		arrival: make([]units.Tau, n.NumNets()),
		from:    make([]netlist.NetID, n.NumNets()),
	}
	for i := range a.from {
		a.from[i] = netlist.None
	}
	return a
}

func (a *analysis) load(id netlist.NetID) units.Cap {
	l := a.n.Load(id)
	nt := a.n.Net(id)
	if nt.IsOutput && nt.PortLoad == 0 {
		l += a.opt.OutputLoad
	}
	return l
}

// propagate sets the start points, then every gate in topological order.
func (a *analysis) propagate(order []netlist.GateID) {
	for _, id := range a.n.Inputs() {
		a.arrival[id] = a.opt.InputArrival
	}
	for _, r := range a.n.Regs() {
		a.evalReg(r)
	}
	for _, gid := range order {
		a.evalGate(a.n.Gate(gid))
	}
}

// evalReg sets the arrival at register r's Q and reports whether it
// changed.
func (a *analysis) evalReg(r *netlist.Reg) bool {
	return a.set(r.Q, r.Cell.Delay(a.load(r.Q))+a.n.Net(r.Q).ExtraDelay, netlist.None)
}

// evalGate sets the arrival at gate g's output from its inputs' current
// arrivals, the first latest input in g.In order winning ties, and
// reports whether it changed.
func (a *analysis) evalGate(g *netlist.Gate) bool {
	worst := units.Tau(math.Inf(-1))
	var worstIn netlist.NetID = netlist.None
	for _, in := range g.In {
		if a.arrival[in] > worst {
			worst, worstIn = a.arrival[in], in
		}
	}
	if worstIn == netlist.None {
		worst = 0
	}
	d := g.Cell.Delay(a.load(g.Out)) + a.n.Net(g.Out).ExtraDelay
	return a.set(g.Out, worst+d, worstIn)
}

// set records net id's arrival and the net it came from, reporting
// whether the arrival's bits changed (what fanout gates read).
func (a *analysis) set(id netlist.NetID, t units.Tau, from netlist.NetID) bool {
	changed := math.Float64bits(float64(t)) != math.Float64bits(float64(a.arrival[id]))
	a.arrival[id] = t
	a.from[id] = from
	return changed
}

// finish fills res from the propagated arrivals: the worst endpoint
// (register D pins with setup, then primary outputs; the first strictly
// worst wins) and its critical path, built in res.Critical's storage.
func (a *analysis) finish(res *Result) error {
	n := a.n
	*res = Result{Arrival: a.arrival, n: n, WorstEnd: netlist.None, Critical: res.Critical}
	worstTotal := units.Tau(math.Inf(-1))
	for _, r := range n.Regs() {
		t := a.arrival[r.D] + r.Cell.Setup
		if t > worstTotal {
			worstTotal = t
			res.WorstComb = a.arrival[r.D]
			res.WorstEnd = r.D
			res.WorstEndKind = EndRegisterD
		}
	}
	for _, id := range n.Outputs() {
		if a.arrival[id] > worstTotal {
			worstTotal = a.arrival[id]
			res.WorstComb = a.arrival[id]
			res.WorstEnd = id
			res.WorstEndKind = EndPrimaryOutput
		}
	}
	if res.WorstEnd == netlist.None {
		return fmt.Errorf("sta: netlist %s has no timing endpoints", n.Name)
	}
	res.WorstEndpointDelay = worstTotal
	res.Critical = a.backtrack(res.Critical, res.WorstEnd)
	return nil
}

// backtrack returns the path ending at net end, start to end, built in
// dst's storage.
func (a *analysis) backtrack(dst []Step, end netlist.NetID) []Step {
	n := a.n
	dst = dst[:0]
	for id := end; id != netlist.None; id = a.from[id] {
		nt := n.Net(id)
		st := Step{Gate: netlist.None, Net: id, Arrival: a.arrival[id]}
		switch {
		case nt.Driver != netlist.None:
			g := n.Gate(nt.Driver)
			st.Gate = g.ID
			st.cell = g.Cell
		case nt.DriverReg != netlist.None:
			st.start, st.reg = n.Reg(nt.DriverReg).Cell.Name, true
		default:
			st.start = nt.Name
		}
		if prev := a.from[id]; prev != netlist.None {
			st.Delay = a.arrival[id] - a.arrival[prev]
		} else {
			st.Delay = a.arrival[id]
		}
		dst = append(dst, st)
	}
	// Reverse into start-to-end order.
	slices.Reverse(dst)
	return dst
}

// Depth returns the number of gates on the critical path.
func (r *Result) Depth() int {
	d := 0
	for _, s := range r.Critical {
		if s.Gate != netlist.None {
			d++
		}
	}
	return d
}

// CombFO4 returns the worst combinational delay in FO4 units.
func (r *Result) CombFO4() float64 { return r.WorstComb.FO4() }

// PathString formats the critical path for reports.
func (r *Result) PathString() string {
	s := ""
	for i, st := range r.Critical {
		if i > 0 {
			s += " -> "
		}
		s += fmt.Sprintf("%s@%.1f", st.What(), st.Arrival.FO4())
	}
	return s
}
