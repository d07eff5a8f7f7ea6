// Package sizing implements transistor/gate sizing: a TILOS-style
// sensitivity-driven upsizing loop on the critical path (Fishburn &
// Dunlop's posynomial heuristic, the paper's reference [7]), discrete
// snapping back to library drives, power-aware minimum sizing off the
// critical path, and the iterative resize-and-reanalyze loop the paper
// calls resynthesis (reference [8], "improve speeds by 20%").
//
// Continuous sizing is the custom-design capability; the gap between a
// continuously sized netlist and its discrete snap measures the paper's
// section 6 claim that discrete drives cost only 2-7% against continuous
// sizing when the library is rich.
package sizing

import (
	"fmt"
	"math"

	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/units"
)

// Options tunes the sizing loops.
type Options struct {
	// MaxIters bounds the TILOS upsizing iterations.
	MaxIters int
	// StepFactor is the multiplicative bump applied to the most
	// sensitive gate each iteration.
	StepFactor float64
	// MaxDrive caps any gate's drive.
	MaxDrive float64
	// Patience is how many consecutive non-improving iterations to
	// tolerate before stopping. Designs with many parallel critical
	// paths need dozens of bumps before the worst path moves.
	Patience int
}

// DefaultOptions are sensible TILOS settings.
func DefaultOptions() Options {
	return Options{MaxIters: 2000, StepFactor: 1.15, MaxDrive: 64, Patience: 80}
}

// Result reports a sizing run.
type Result struct {
	Before, After units.Tau
	Iters         int
	AreaBefore    float64
	AreaAfter     float64
}

// Speedup is Before/After.
func (r Result) Speedup() float64 {
	if r.After == 0 {
		return math.Inf(1)
	}
	return float64(r.Before) / float64(r.After)
}

func (r Result) String() string {
	return fmt.Sprintf("sizing: %.1f -> %.1f FO4 (%.2fx) in %d iters, area %.0f -> %.0f",
		r.Before.FO4(), r.After.FO4(), r.Speedup(), r.Iters, r.AreaBefore, r.AreaAfter)
}

// ContinuousTILOS runs sensitivity-driven continuous upsizing: repeatedly
// analyze, walk the critical path, and bump the gate whose upsizing most
// reduces the path delay (accounting for the extra load presented to its
// driver). Requires a library permitting continuous drives for exact
// realization; with a discrete library the result is later snapped.
// Each bump re-times only what it can move (sta.Timer), which gives the
// same answers as re-analyzing the whole netlist.
func ContinuousTILOS(n *netlist.Netlist, lib *cell.Library, opt Options) (Result, error) {
	if opt.MaxIters <= 0 {
		opt = DefaultOptions()
	}
	timer, err := sta.NewTimer(n, sta.Options{})
	if err != nil {
		return Result{}, err
	}
	cur := timer.Result()
	res := Result{Before: cur.WorstComb, AreaBefore: n.TotalArea()}

	snapshot := func(cells []*cell.Cell) []*cell.Cell {
		cells = cells[:0]
		for _, g := range n.Gates() {
			cells = append(cells, g.Cell)
		}
		return cells
	}

	best := cur.WorstComb
	bestCells := snapshot(nil)
	noGain := 0
	for iter := 0; iter < opt.MaxIters; iter++ {
		gate, gain := bestBump(n, cur, opt)
		if gate == netlist.None || gain <= 1e-9 {
			break
		}
		g := n.Gate(gate)
		newDrive := math.Min(g.Cell.Drive*opt.StepFactor, opt.MaxDrive)
		if newDrive <= g.Cell.Drive {
			break
		}
		c, err := lib.ForDrive(g.Cell.Func, newDrive)
		if err != nil {
			return res, err
		}
		timer.SetCell(gate, c)
		if stepCheck != nil {
			stepCheck(n, cur)
		}
		res.Iters = iter + 1
		if cur.WorstComb < best {
			best = cur.WorstComb
			bestCells = snapshot(bestCells)
			noGain = 0
		} else {
			noGain++
			if opt.Patience > 0 && noGain > opt.Patience {
				break
			}
		}
	}
	for i, g := range n.Gates() {
		g.Cell = bestCells[i]
	}
	res.After = best
	res.AreaAfter = n.TotalArea()
	return res, nil
}

// stepCheck, when set, sees the netlist and the timer's result after
// every TILOS bump. Tests use it to check the incremental timer against
// a fresh analysis at each step.
var stepCheck func(n *netlist.Netlist, r *sta.Result)

// bestBump scans the critical path and estimates, for each gate on it, the
// delay change from multiplying its drive by the step factor: the gate's
// own effort delay shrinks, but its input capacitance grows, loading the
// upstream path gate. Returns the best candidate and its estimated gain.
func bestBump(n *netlist.Netlist, r *sta.Result, opt Options) (netlist.GateID, float64) {
	best := netlist.GateID(netlist.None)
	bestGain := 0.0
	for i, step := range r.Critical {
		if step.Gate == netlist.None {
			continue
		}
		g := n.Gate(step.Gate)
		if g.Cell.Drive*opt.StepFactor > opt.MaxDrive {
			continue
		}
		load := float64(n.Load(g.Out))
		oldSelf := load / g.Cell.Drive
		newSelf := load / (g.Cell.Drive * opt.StepFactor)
		gain := oldSelf - newSelf

		// Penalty: the upstream critical gate sees our input cap grow.
		if i > 0 && r.Critical[i-1].Gate != netlist.None {
			up := n.Gate(r.Critical[i-1].Gate)
			dCin := g.Cell.InputCap()*units.Cap(opt.StepFactor) - g.Cell.InputCap()
			gain -= float64(dCin) / up.Cell.Drive
		}
		if gain > bestGain {
			bestGain = gain
			best = step.Gate
		}
	}
	return best, bestGain
}

// SnapMode selects how continuous drives map to discrete library cells.
type SnapMode int

// Snap modes, ablated in the benchmarks: rounding up wastes area and load;
// nearest is the usual choice.
const (
	SnapNearest SnapMode = iota
	SnapUp
)

// SnapToLibrary replaces every gate's (possibly continuous) cell with a
// discrete cell from lib. Returns the resulting worst-path delay.
func SnapToLibrary(n *netlist.Netlist, lib *cell.Library, mode SnapMode) (units.Tau, error) {
	for _, g := range n.Gates() {
		var c *cell.Cell
		var err error
		switch mode {
		case SnapUp:
			c, err = snapUp(lib, g.Cell.Func, g.Cell.Drive)
		default:
			c, err = lib.ForDrive(g.Cell.Func, g.Cell.Drive)
		}
		if err != nil {
			return 0, err
		}
		g.Cell = c
	}
	r, err := sta.Analyze(n, sta.Options{})
	if err != nil {
		return 0, err
	}
	return r.WorstComb, nil
}

func snapUp(lib *cell.Library, f cell.Func, drive float64) (*cell.Cell, error) {
	cells := lib.Cells(f)
	if len(cells) == 0 {
		return nil, fmt.Errorf("sizing: no %v in %s", f, lib.Name)
	}
	for _, c := range cells {
		if c.Drive >= drive-1e-12 {
			return c, nil
		}
	}
	return cells[len(cells)-1], nil
}

// PowerAware downsizes every gate with positive slack to the smallest
// drive that keeps the design's worst path within the given fraction of
// its current value. This is the paper's "sizing transistors minimally to
// reduce power consumption, except on critical paths" (section 6.2);
// the returned count is the number of gates downsized.
func PowerAware(n *netlist.Netlist, lib *cell.Library, slackFrac float64) (int, error) {
	r, err := sta.Analyze(n, sta.Options{})
	if err != nil {
		return 0, err
	}
	budget := units.Tau(float64(r.WorstComb) * (1 + slackFrac))
	down := 0
	for _, g := range n.Gates() {
		cells := lib.Cells(g.Cell.Func)
		// Try drives from smallest up; keep the first that stays
		// within budget.
		orig := g.Cell
		for _, c := range cells {
			if c.Drive >= orig.Drive {
				break
			}
			g.Cell = c
			nr, err := sta.Analyze(n, sta.Options{})
			if err != nil {
				return down, err
			}
			if nr.WorstComb <= budget {
				down++
				break
			}
			g.Cell = orig
		}
	}
	return down, nil
}

// Resynthesize runs the iterative resize loop of the paper's reference
// [8]: alternate TILOS upsizing on the critical path with power-aware
// relaxation off it, until an iteration stops helping. Returns the
// combined result.
func Resynthesize(n *netlist.Netlist, lib *cell.Library, rounds int) (Result, error) {
	first, err := sta.Analyze(n, sta.Options{})
	if err != nil {
		return Result{}, err
	}
	res := Result{Before: first.WorstComb, AreaBefore: n.TotalArea()}
	prev := first.WorstComb
	for i := 0; i < rounds; i++ {
		tr, err := ContinuousTILOS(n, lib, DefaultOptions())
		if err != nil {
			return res, err
		}
		res.Iters += tr.Iters
		if tr.After >= prev {
			break
		}
		prev = tr.After
	}
	r, err := sta.Analyze(n, sta.Options{})
	if err != nil {
		return res, err
	}
	res.After = r.WorstComb
	res.AreaAfter = n.TotalArea()
	return res, nil
}
