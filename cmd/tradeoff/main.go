// Command tradeoff sweeps pipeline depth through the full methodology
// flow and prints clock, throughput (hazard-discounted), area, and power
// per depth — the whole section 4 trade surface, including the cost the
// paper explicitly set aside: the Alpha bought its clock with 90 W.
//
// Usage:
//
//	tradeoff [-flow asic|custom] [-max N] [-workload dsp|integer|bus] [-json]
//
// With -json the sweep is emitted as the same job-result envelope the
// gapd service returns from POST /v1/sweep.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/pipeline"
)

func main() {
	flow := flag.String("flow", "asic", "methodology: asic (best-practice) or custom")
	maxStages := flag.Int("max", 8, "deepest pipeline")
	workload := flag.String("workload", "integer", "workload: dsp, integer, bus")
	seed := flag.Int64("seed", 0, "placement seed")
	asJSON := flag.Bool("json", false, "emit the sweep as a gapd job result")
	flag.Parse()

	if *asJSON {
		base := map[string]string{"asic": "best-practice", "custom": "custom"}[*flow]
		if base == "" {
			fmt.Fprintf(os.Stderr, "tradeoff: unknown flow %q\n", *flow)
			os.Exit(1)
		}
		st, err := jobs.RunService(context.Background(), jobs.Spec{
			Kind:        jobs.KindSweep,
			Design:      jobs.DesignSpec{Name: "datapath", Width: 16, Depth: 4},
			Methodology: jobs.MethSpec{Base: base},
			MaxStages:   *maxStages,
			Workload:    *workload,
			Seed:        *seed,
		}, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tradeoff:", err)
			os.Exit(1)
		}
		if _, err := os.Stdout.Write(append(st.Body, '\n')); err != nil {
			fmt.Fprintln(os.Stderr, "tradeoff:", err)
			os.Exit(1)
		}
		return
	}

	var m core.Methodology
	switch *flow {
	case "asic":
		m = core.BestPracticeASIC()
	case "custom":
		m = core.FullCustom()
	default:
		fmt.Fprintf(os.Stderr, "tradeoff: unknown flow %q\n", *flow)
		os.Exit(1)
	}
	m.Seed = *seed
	var wl pipeline.Workload
	switch *workload {
	case "dsp":
		wl = pipeline.DSPWorkload()
	case "integer":
		wl = pipeline.IntegerWorkload()
	case "bus":
		wl = pipeline.BusInterfaceWorkload()
	default:
		fmt.Fprintf(os.Stderr, "tradeoff: unknown workload %q\n", *workload)
		os.Exit(1)
	}

	design := core.DatapathDesign(16, 4)
	fmt.Printf("flow %s on %s, %s workload:\n\n", m.Name, design.Name, *workload)
	fmt.Printf("%6s %10s %9s %9s %8s %9s %7s\n",
		"stages", "MHz", "ops rel", "regs", "area", "power", "mW/op")
	pts, err := core.DepthSweep(design, m, *maxStages, wl.CPI)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tradeoff:", err)
		os.Exit(1)
	}
	for _, p := range pts {
		ev := p.Eval
		opsRel := p.ThroughputRel
		mwPerOp := 0.0
		if opsRel > 0 {
			mwPerOp = 1000 * ev.PowerW / (opsRel * 100)
		}
		fmt.Printf("%6d %10.0f %8.2fx %9d %7.3fmm2 %8.3fW %7.2f\n",
			p.Stages, ev.ShippedMHz, opsRel, ev.Regs, ev.AreaMM2, ev.PowerW, mwPerOp)
	}
	best := core.BestDepth(pts)
	fmt.Printf("\nbest depth for this workload: %d stages (%.2fx)\n", best.Stages, best.ThroughputRel)
	fmt.Println("note the power column: clock rate is bought with registers and their")
	fmt.Println("clock pins — the paper's closing caveat that its analysis ignores the")
	fmt.Println("power axis, on which the 90 W Alpha and the 6.3 W IBM core differ 14x.")
}
