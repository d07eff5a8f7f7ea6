package pipeline

import (
	"math"

	"repro/internal/netlist"
	"repro/internal/units"
)

// refineStages performs retiming-lite on a stage assignment: gates at the
// head or tail of the worst stage are moved across the boundary when that
// reduces the maximum per-stage delay estimate. This is the paper's
// custom capability of "balancing the logic in pipeline stages after
// placement" (section 4.1) — it runs on wire-annotated timing, unlike the
// initial cut which only quantizes arrival times.
func refineStages(n *netlist.Netlist, stageOf []int, stages int, order []netlist.GateID) {
	if stages < 2 {
		return
	}
	delayOf := func(g *netlist.Gate) float64 {
		return float64(g.Cell.Delay(n.Load(g.Out)) + n.Net(g.Out).ExtraDelay)
	}

	// stageDelays estimates each stage's critical delay: arrival resets
	// at stage boundaries (registers launch at t=0 within the stage).
	arr := make([]float64, n.NumGates())
	stageDelays := func() []float64 {
		d := make([]float64, stages)
		for _, gid := range order {
			g := n.Gate(gid)
			s := stageOf[gid]
			worst := 0.0
			for _, in := range g.In {
				if fi := n.Net(in).Driver; fi != netlist.None && stageOf[fi] == s && arr[fi] > worst {
					worst = arr[fi]
				}
			}
			arr[gid] = worst + delayOf(g)
			if arr[gid] > d[s] {
				d[s] = arr[gid]
			}
		}
		return d
	}

	maxOf := func(d []float64) (int, float64) {
		wi, wv := 0, math.Inf(-1)
		for i, v := range d {
			if v > wv {
				wi, wv = i, v
			}
		}
		return wi, wv
	}

	// Cap the number of accepted moves: each accepted move costs a few
	// full-netlist evaluations, and balance converges quickly.
	moves := 4 * n.NumGates()
	if moves > 120 {
		moves = 120
	}
	for iter := 0; iter < moves; iter++ {
		d := stageDelays()
		worst, worstVal := maxOf(d)
		improved := false
		// Head candidates: every fanin in an earlier stage -> can move
		// back. Tail candidates: every fanout in a later stage (or a
		// primary output / register) -> can move forward.
		for _, gid := range order {
			if stageOf[gid] != worst {
				continue
			}
			g := n.Gate(gid)
			headOK := worst > 0
			for _, in := range g.In {
				if fi := n.Net(in).Driver; fi != netlist.None && stageOf[fi] >= worst {
					headOK = false
					break
				}
			}
			tailOK := worst < stages-1
			if tailOK {
				out := n.Net(g.Out)
				if out.IsOutput || len(out.RegSinks) > 0 {
					tailOK = false
				}
				for _, p := range out.Sinks {
					if stageOf[p.Gate] <= worst {
						tailOK = false
						break
					}
				}
			}
			try := func(to int) bool {
				stageOf[gid] = to
				nd := stageDelays()
				_, nv := maxOf(nd)
				if nv < worstVal-1e-12 {
					return true
				}
				stageOf[gid] = worst
				return false
			}
			if headOK && try(worst-1) {
				improved = true
				break
			}
			if tailOK && try(worst+1) {
				improved = true
				break
			}
		}
		if !improved {
			return
		}
	}
}

// RefinedImbalance reports the ratio of worst to mean stage delay for a
// delays slice — 1.0 is perfect balance.
func RefinedImbalance(d []units.Tau) float64 {
	if len(d) == 0 {
		return 1
	}
	sum, worst := 0.0, 0.0
	for _, v := range d {
		sum += float64(v)
		if float64(v) > worst {
			worst = float64(v)
		}
	}
	mean := sum / float64(len(d))
	if mean == 0 {
		return 1
	}
	return worst / mean
}
