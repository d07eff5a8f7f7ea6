// Command pipesweep reproduces the section 4 pipelining analysis: it cuts
// a deep datapath into 1..N stages, prints the achievable cycle time and
// clock speedup per depth under flip-flop and latch-borrowing clocking,
// and then applies the section 4.1 workload model to show where deeper
// pipelines stop paying for DSP, integer, and bus-interface work.
//
// Usage:
//
//	pipesweep [-width N] [-depth N] [-max N] [-workload dsp|integer|bus|flat] [-json]
//
// With -json a depth sweep through the full best-practice flow is
// emitted as the same job-result envelope the gapd service returns from
// POST /v1/sweep.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/cell"
	"repro/internal/circuits"
	"repro/internal/jobs"
	"repro/internal/pipeline"
	"repro/internal/sta"
	"repro/internal/units"
)

func main() {
	width := flag.Int("width", 16, "datapath word width")
	depth := flag.Int("depth", 4, "datapath slice depth")
	maxStages := flag.Int("max", 10, "deepest pipeline to try")
	workload := flag.String("workload", "integer", "workload for -json mode: dsp, integer, bus, flat")
	seed := flag.Int64("seed", 1, "placement seed for -json mode")
	asJSON := flag.Bool("json", false, "emit a best-practice depth sweep as a gapd job result")
	flag.Parse()

	if *asJSON {
		st, err := jobs.RunService(context.Background(), jobs.Spec{
			Kind:        jobs.KindSweep,
			Design:      jobs.DesignSpec{Name: "datapath", Width: *width, Depth: *depth},
			Methodology: jobs.MethSpec{Base: "best-practice"},
			MaxStages:   *maxStages,
			Workload:    *workload,
			Seed:        *seed,
		}, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pipesweep:", err)
			os.Exit(1)
		}
		if _, err := os.Stdout.Write(append(st.Body, '\n')); err != nil {
			fmt.Fprintln(os.Stderr, "pipesweep:", err)
			os.Exit(1)
		}
		return
	}

	lib := cell.RichASIC()
	n, err := circuits.DatapathComb(lib, *width, *depth)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipesweep:", err)
		os.Exit(1)
	}
	base, err := sta.Analyze(n, sta.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipesweep:", err)
		os.Exit(1)
	}
	fmt.Printf("workload: %s, %.1f FO4 of logic end to end\n\n", n.Name, base.CombFO4())
	fmt.Printf("%6s %12s %9s %12s %9s %8s\n",
		"stages", "FF cycle", "speedup", "latch cycle", "speedup", "regs")

	clk := sta.ASICClocking()
	ffCycles := make([]float64, 0, *maxStages)
	var oneStage units.Tau
	for s := 1; s <= *maxStages; s++ {
		ffRep, _, err := pipeline.Evaluate(n, pipeline.Options{
			Stages: s, Seq: lib.DefaultSeq(2), Method: pipeline.BalancedDelay,
		}, clk, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pipesweep:", err)
			os.Exit(1)
		}
		latchRep, _, err := pipeline.Evaluate(n, pipeline.Options{
			Stages: s, Seq: cell.TransparentLatch(2), Method: pipeline.BalancedDelay,
		}, clk, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pipesweep:", err)
			os.Exit(1)
		}
		if s == 1 {
			oneStage = ffRep.Cycle
		}
		fmt.Printf("%6d %9.1f FO4 %8.2fx %9.1f FO4 %8.2fx %8d\n",
			s, ffRep.Cycle.FO4(), float64(oneStage)/float64(ffRep.Cycle),
			latchRep.Cycle.FO4(), float64(oneStage)/float64(latchRep.Cycle), ffRep.Regs)
		ffCycles = append(ffCycles, float64(ffRep.Cycle))
	}

	fmt.Println("\nsection 4.1: throughput vs depth by workload (relative ops/s)")
	fmt.Printf("%6s %10s %10s %10s\n", "stages", "DSP", "integer", "bus-if")
	cycleAt := func(s int) float64 { return ffCycles[s-1] }
	for s := 1; s <= *maxStages; s++ {
		rel := cycleAt(s) / cycleAt(1)
		fmt.Printf("%6d %10.2f %10.2f %10.2f\n", s,
			pipeline.DSPWorkload().Throughput(s, rel),
			pipeline.IntegerWorkload().Throughput(s, rel),
			pipeline.BusInterfaceWorkload().Throughput(s, rel))
	}
	for _, w := range []struct {
		name string
		wl   pipeline.Workload
	}{
		{"DSP", pipeline.DSPWorkload()},
		{"integer", pipeline.IntegerWorkload()},
		{"bus-interface", pipeline.BusInterfaceWorkload()},
	} {
		best, tput := w.wl.BestDepth(*maxStages, cycleAt)
		fmt.Printf("best depth for %-14s %2d stages (%.2fx throughput)\n", w.name+":", best, tput)
	}
}
