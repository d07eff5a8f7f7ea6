// Command gapreport reproduces the paper's headline analysis: the section
// 2 speed survey, the section 3 factor ladder measured on a real netlist
// pushed through progressively more custom methodologies, and the section
// 9 residual arithmetic.
//
// Usage:
//
//	gapreport [-width N] [-depth N] [-seed N] [-json]
//
// With -json the factor ladder is emitted as the same job-result
// envelope the gapd service returns from POST /v1/ladder.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/chips"
	"repro/internal/core"
	"repro/internal/jobs"
)

func main() {
	width := flag.Int("width", 16, "datapath word width")
	depth := flag.Int("depth", 4, "datapath slice depth")
	seed := flag.Int64("seed", 1, "seed for placement and Monte Carlo")
	asJSON := flag.Bool("json", false, "emit the factor ladder as a gapd job result")
	flag.Parse()

	if *asJSON {
		st, err := jobs.RunService(context.Background(), jobs.Spec{
			Kind:   jobs.KindLadder,
			Design: jobs.DesignSpec{Name: "datapath", Width: *width, Depth: *depth},
			Seed:   *seed,
		}, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gapreport:", err)
			os.Exit(1)
		}
		if _, err := os.Stdout.Write(append(st.Body, '\n')); err != nil {
			fmt.Fprintln(os.Stderr, "gapreport:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Println("== Section 2: published 0.25um silicon survey ==")
	fmt.Printf("%-22s %8s %9s %7s %7s %s\n", "chip", "MHz", "FO4/cyc", "stages", "skew", "family")
	for _, c := range chips.Survey() {
		fmt.Printf("%-22s %8.0f %9.0f %7d %6.0f%% %v\n",
			c.Name, c.ReportedMHz, c.FO4PerCycle, c.PipelineStages, 100*c.SkewFrac, c.Family)
	}
	fmt.Printf("\ncustom/ASIC gaps: IBM/typical %.1fx, Alpha/typical %.1fx (paper: 6-8x)\n\n",
		chips.Gap(chips.IBMPowerPC1GHz, chips.TypicalASIC),
		chips.Gap(chips.Alpha21264A, chips.TypicalASIC))

	design := core.DatapathDesign(*width, *depth)
	fmt.Printf("== Section 3: factor ladder (measured on %s) ==\n", design.Name)
	ladder, err := core.FactorLadder(design, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gapreport:", err)
		os.Exit(1)
	}
	fmt.Print(ladder)

	fmt.Println("\n== Section 9: residual analysis ==")
	rp := ladder.Residual(core.StepPipelining, core.StepProcess)
	rd := ladder.Residual(core.StepPipelining, core.StepProcess, core.StepDomino)
	fmt.Printf("after pipelining+process: %.2fx unexplained (paper: 2-3x)\n", rp)
	fmt.Printf("after also dynamic logic: %.2fx unexplained (paper: ~1.6x)\n", rd)

	fmt.Println("\n== Methodology endpoints ==")
	for _, m := range []core.Methodology{core.TypicalASIC2000(), core.BestPracticeASIC(), core.FullCustom()} {
		m.Seed = *seed
		ev, err := core.Evaluate(design, m)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gapreport:", err)
			os.Exit(1)
		}
		fmt.Printf("%-20s %7.1f FO4/cyc  %6.0f MHz nominal x %.2f = %6.0f MHz shipped  (%d gates, %d regs, %.2f W)\n",
			m.Name, ev.FO4PerCycle, ev.NominalMHz, ev.RatingMult, ev.ShippedMHz, ev.Gates, ev.Regs, ev.PowerW)
	}
}
