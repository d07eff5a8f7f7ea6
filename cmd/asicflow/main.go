// Command asicflow runs one circuit through the complete ASIC (or custom)
// implementation flow step by step — generate, map, size, buffer,
// pipeline, floorplan, resize, domino, analyze — printing what each stage
// did to the critical path. It is the toolkit's "look inside Evaluate"
// debugging and teaching tool.
//
// Usage:
//
//	asicflow [-circuit cla32|rca32|ks32|mult8|shifter32|alu32|datapath]
//	         [-lib rich|poor|custom] [-stages N] [-die mm] [-seed N] [-json]
//
// With -json the flags are mapped onto an evaluate job spec and the
// result is emitted as the same envelope the gapd service returns from
// POST /v1/evaluate (the step-by-step trace is suppressed).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/cell"
	"repro/internal/circuits"
	"repro/internal/dynlogic"
	"repro/internal/jobs"
	"repro/internal/netlist"
	"repro/internal/pipeline"
	"repro/internal/place"
	"repro/internal/power"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/units"
	"repro/internal/wire"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "asicflow:", err)
	os.Exit(1)
}

func buildCircuit(name string, lib *cell.Library) (*netlist.Netlist, error) {
	switch name {
	case "cla32":
		a, err := circuits.CarryLookahead(lib, 32)
		if err != nil {
			return nil, err
		}
		return a.N, nil
	case "rca32":
		a, err := circuits.RippleCarry(lib, 32)
		if err != nil {
			return nil, err
		}
		return a.N, nil
	case "ks32":
		a, err := circuits.KoggeStone(lib, 32)
		if err != nil {
			return nil, err
		}
		return a.N, nil
	case "mult8":
		m, err := circuits.ArrayMultiplier(lib, 8)
		if err != nil {
			return nil, err
		}
		return m.N, nil
	case "shifter32":
		s, err := circuits.BarrelShifter(lib, 32)
		if err != nil {
			return nil, err
		}
		return s.N, nil
	case "alu32":
		a, err := circuits.NewALU(lib, 32)
		if err != nil {
			return nil, err
		}
		return a.N, nil
	case "datapath":
		return circuits.DatapathComb(lib, 16, 4)
	}
	return nil, fmt.Errorf("unknown circuit %q", name)
}

// jsonSpecs maps asicflow's flag vocabulary onto the jobs package's.
var (
	jsonCircuits = map[string]jobs.DesignSpec{
		"cla32":     {Name: "cla", Width: 32},
		"rca32":     {Name: "rca", Width: 32},
		"ks32":      {Name: "ks", Width: 32},
		"mult8":     {Name: "mult", Width: 8},
		"shifter32": {Name: "shifter", Width: 32},
		"alu32":     {Name: "alu", Width: 32},
		"datapath":  {Name: "datapath", Width: 16, Depth: 4},
	}
	jsonBases = map[string]string{
		"poor":   "typical-asic",
		"rich":   "best-practice-asic",
		"custom": "full-custom",
	}
)

// emitJSON runs the flag-equivalent evaluate job and prints the gapd
// result envelope.
func emitJSON(circuit, libName string, stages int, dieMM float64, seed int64) {
	design, ok := jsonCircuits[circuit]
	if !ok {
		fail(fmt.Errorf("unknown circuit %q", circuit))
	}
	base, ok := jsonBases[libName]
	if !ok {
		fail(fmt.Errorf("unknown library %q", libName))
	}
	st, err := jobs.RunService(context.Background(), jobs.Spec{
		Kind:        jobs.KindEvaluate,
		Design:      design,
		Methodology: jobs.MethSpec{Base: base, Stages: stages, DieSideMM: dieMM},
		Seed:        seed,
	}, 1)
	if err != nil {
		fail(err)
	}
	if _, err := os.Stdout.Write(append(st.Body, '\n')); err != nil {
		fail(err)
	}
}

func report(tag string, n *netlist.Netlist) {
	r, err := sta.Analyze(n, sta.Options{})
	if err != nil {
		fail(err)
	}
	fmt.Printf("%-28s %6d gates %5d regs  depth %3d  worst %7.1f FO4\n",
		tag, n.NumGates(), n.NumRegs(), r.Depth(), r.CombFO4())
}

func main() {
	circuit := flag.String("circuit", "datapath", "circuit to implement")
	libName := flag.String("lib", "rich", "cell library: rich, poor, custom")
	stages := flag.Int("stages", 4, "pipeline stages")
	dieMM := flag.Float64("die", 0, "die side in mm (0 = auto)")
	seed := flag.Int64("seed", 1, "placement seed")
	dump := flag.String("dump", "", "write the final pipelined netlist as Verilog to this file")
	asJSON := flag.Bool("json", false, "emit the equivalent evaluate job result as JSON")
	flag.Parse()

	if *asJSON {
		emitJSON(*circuit, *libName, *stages, *dieMM, *seed)
		return
	}

	var lib *cell.Library
	switch *libName {
	case "rich":
		lib = cell.RichASIC()
	case "poor":
		lib = cell.PoorASIC()
	case "custom":
		lib = cell.Custom()
	default:
		fail(fmt.Errorf("unknown library %q", *libName))
	}
	fmt.Printf("library: %v\n\n", lib)

	raw, err := buildCircuit(*circuit, lib)
	if err != nil {
		fail(err)
	}
	report("generated", raw)

	raw, err = synth.Sweep(raw)
	if err != nil {
		fail(err)
	}
	report("swept (const-fold + DCE)", raw)

	mapped, err := synth.Map(raw, lib, synth.MapOptions{Objective: synth.MinDelay})
	if err != nil {
		fail(err)
	}
	report("tech-mapped", mapped)
	fmt.Printf("  cover: %s\n", synth.CoverStats(mapped))

	proc := units.ASIC025
	if lib.Continuous {
		proc = units.Custom025
	}
	wm := wire.NewModel(proc)
	wl := &wire.LoadModel{M: wm, BlockAreaMM2: 1}
	if err := synth.SelectDrives(mapped, lib, wl); err != nil {
		fail(err)
	}
	report("drive-selected (wire-load)", mapped)

	nbuf, err := synth.InsertBuffers(mapped, lib)
	if err != nil {
		fail(err)
	}
	if err := synth.SelectDrives(mapped, lib, nil); err != nil {
		fail(err)
	}
	report(fmt.Sprintf("buffered (+%d bufs)", nbuf), mapped)

	side := *dieMM
	if side <= 0 {
		side = 2
	}
	// Multi-block designs get block-level floorplanning; flat circuits
	// get detailed gate placement with measured per-net lengths.
	if len(place.BlockAreasMM2(mapped)) > 1 {
		pl := place.Floorplan(mapped, place.Die{SideMM: side}, place.Careful, *seed)
		pl.Annotate(mapped, place.AnnotateOptions{WireModel: wm, Repeaters: true, LocalMM: 0.05})
		if err := synth.SelectDrives(mapped, lib, nil); err != nil {
			fail(err)
		}
		report(fmt.Sprintf("floorplanned (%.1f mm HPWL)", pl.TotalHPWL(mapped)), mapped)
	} else {
		gp, err := place.PlaceGates(mapped, place.Careful, *seed)
		if err != nil {
			fail(err)
		}
		gp.Annotate(place.AnnotateOptions{WireModel: wm, Repeaters: true})
		if err := synth.SelectDrives(mapped, lib, nil); err != nil {
			fail(err)
		}
		report(fmt.Sprintf("placed gates (%.2f mm wire, %.3f mm2)", gp.TotalWireMM(), gp.AreaMM2), mapped)
	}

	sz, err := sizing.ContinuousTILOS(mapped, lib, sizing.DefaultOptions())
	if err != nil {
		fail(err)
	}
	if !lib.Continuous {
		if _, err := sizing.SnapToLibrary(mapped, lib, sizing.SnapNearest); err != nil {
			fail(err)
		}
	}
	report(fmt.Sprintf("sized (%s)", sz), mapped)

	if lib.HasDomino() {
		dres, err := dynlogic.Dominoize(mapped, dynlogic.DefaultOptions())
		if err != nil {
			fail(err)
		}
		report(fmt.Sprintf("dominoized (%d gates)", dres.Converted), mapped)
		if v := dynlogic.NoiseAudit(mapped, 40); len(v) > 0 {
			fmt.Printf("  noise audit: %d exposed domino inputs\n", len(v))
		}
	}

	piped, err := pipeline.Pipeline(mapped, pipeline.Options{
		Stages: *stages, Seq: lib.DefaultSeq(2), Method: pipeline.BalancedDelay,
	})
	if err != nil {
		fail(err)
	}
	pl2 := place.Floorplan(piped, place.Die{SideMM: side}, place.Careful, *seed)
	pl2.Annotate(piped, place.AnnotateOptions{WireModel: wm, Repeaters: true, LocalMM: 0.05})
	r, err := sta.Analyze(piped, sta.Options{})
	if err != nil {
		fail(err)
	}
	sd := pipeline.StageDelays(piped, r, *stages)
	cycle := pipeline.FFCycle(sd, sta.ASICClocking())
	fmt.Printf("\npipelined into %d stages:", *stages)
	for _, d := range sd {
		fmt.Printf(" %.1f", d.FO4())
	}
	fmt.Printf(" FO4\ncycle %.1f FO4 -> %.0f MHz in %v\n", cycle.FO4(), proc.FrequencyMHz(cycle), proc)
	fmt.Printf("power at that clock: %v\n",
		power.Estimate(piped, proc, power.DefaultOptions(proc.FrequencyMHz(cycle))))
	fmt.Printf("critical path: %s\n", r.PathString())

	hold, err := sta.HoldCheck(piped, sta.ASICClocking(), cycle)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%v\n", hold)

	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := piped.WriteVerilog(f); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *dump)
	}
}
