// Command procmc reproduces the section 8 process-variation analysis by
// Monte Carlo: it samples dies from young, mature, and second-tier
// fabrication lines, prints the speed distribution each line ships
// (worst-case rating, typical, fast bin), the speed-bin table a custom
// vendor would sell from, and the paper's headline comparisons.
//
// Usage:
//
//	procmc [-dies N] [-seed N] [-json]
//
// With -json the measured statistics are emitted in the gapd job-result
// envelope under kind "procvar" (a CLI-only kind: the numbers land in
// the result's tables map; the service itself does not run this kind).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/jobs"
	"repro/internal/procvar"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is procmc on the given arguments; it returns the exit status: 0,
// 1 on an output error, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("procmc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dies := fs.Int("dies", 20000, "dies per line to sample (at least 1)")
	seed := fs.Int64("seed", 42, "Monte Carlo seed")
	asJSON := fs.Bool("json", false, "emit the statistics as a gapd job result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dies < 1 {
		fmt.Fprintf(stderr, "procmc: -dies must be at least 1, got %d\n", *dies)
		fs.Usage()
		return 2
	}

	lines := []struct {
		name string
		slug string
		c    procvar.Components
	}{
		{"new process (ramp)", "new_process", procvar.NewProcess()},
		{"mature process", "mature_process", procvar.MatureProcess()},
		{"second-tier fab", "second_tier_fab", procvar.SecondTierFab()},
	}
	samples := make(map[string][]float64, len(lines))
	for i, l := range lines {
		samples[l.name] = l.c.Sample(*dies, *seed+int64(i))
	}

	if *asJSON {
		if err := emitJSON(stdout, lines, samples, *dies, *seed); err != nil {
			fmt.Fprintln(stderr, "procmc:", err)
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "%-20s %7s %8s %8s %8s %8s %8s\n",
		"line", "rated", "median", "fast", "typ+%", "fast+%", "spread%")
	for _, l := range lines {
		r := procvar.Analyze(samples[l.name])
		fmt.Fprintf(stdout, "%-20s %7.2f %8.2f %8.2f %7.0f%% %7.0f%% %7.0f%%\n",
			l.name, r.Rated, r.Median, r.Fast, 100*r.TypGain, 100*r.FastGain, 100*r.Spread)
	}

	fmt.Fprintln(stdout, "\nspeed-bin table, new process (custom vendor practice):")
	floors := []float64{0.80, 0.90, 1.00, 1.10}
	bins := procvar.SpeedBin(samples["new process (ramp)"], floors)
	for i, b := range bins {
		label := "discard"
		if i > 0 {
			label = fmt.Sprintf(">= %.2f", b.MinSpeed)
		}
		fmt.Fprintf(stdout, "  bin %-8s %6d dies (%5.1f%%)\n", label, b.Count, 100*b.Frac)
	}

	newLine := samples["new process (ramp)"]
	mature := samples["mature process"]
	second := samples["second-tier fab"]
	fmt.Fprintln(stdout, "\npaper claims vs measured:")
	fmt.Fprintf(stdout, "  typical over worst-case quote: measured +%.0f%% (paper: 60-70%%)\n",
		100*procvar.Analyze(newLine).TypGain)
	fmt.Fprintf(stdout, "  fastest over typical (young):  measured +%.0f%% (paper: 20-40%%)\n",
		100*procvar.Analyze(newLine).FastGain)
	fmt.Fprintf(stdout, "  new-process bin spread:        measured %.0f%% (paper: 30-40%%)\n",
		100*procvar.Analyze(newLine).Spread)
	fmt.Fprintf(stdout, "  fab-to-fab median gap:         measured +%.0f%% (paper: 20-25%%)\n",
		100*procvar.FabToFabGap(mature, second))
	fmt.Fprintf(stdout, "  tested-speed shipping gain:    measured +%.0f%% (paper: 30-40%%+)\n",
		100*procvar.TestedSpeedGain(second))
	fmt.Fprintf(stdout, "  custom best vs ASIC rating:    measured +%.0f%% (paper: ~90%%)\n",
		100*procvar.CustomAdvantage(mature, second))
	return 0
}

// emitJSON flattens the Monte Carlo statistics into the gapd job-result
// envelope under the CLI-only "procvar" kind.
func emitJSON(w io.Writer, lines []struct {
	name string
	slug string
	c    procvar.Components
}, samples map[string][]float64, dies int, seed int64) error {
	tables := map[string]float64{
		"dies_per_line": float64(dies),
	}
	for _, l := range lines {
		r := procvar.Analyze(samples[l.name])
		tables[l.slug+".rated"] = r.Rated
		tables[l.slug+".median"] = r.Median
		tables[l.slug+".fast"] = r.Fast
		tables[l.slug+".typ_gain"] = r.TypGain
		tables[l.slug+".fast_gain"] = r.FastGain
		tables[l.slug+".spread"] = r.Spread
	}
	newLine := samples["new process (ramp)"]
	mature := samples["mature process"]
	second := samples["second-tier fab"]
	tables["claims.typ_over_worst"] = procvar.Analyze(newLine).TypGain
	tables["claims.fast_over_typ_young"] = procvar.Analyze(newLine).FastGain
	tables["claims.new_process_spread"] = procvar.Analyze(newLine).Spread
	tables["claims.fab_to_fab_gap"] = procvar.FabToFabGap(mature, second)
	tables["claims.tested_speed_gain"] = procvar.TestedSpeedGain(second)
	tables["claims.custom_advantage"] = procvar.CustomAdvantage(mature, second)
	for i, b := range procvar.SpeedBin(newLine, []float64{0.80, 0.90, 1.00, 1.10}) {
		key := "bin.discard"
		if i > 0 {
			key = fmt.Sprintf("bin.ge_%.2f", b.MinSpeed)
		}
		tables[key+".frac"] = b.Frac
	}

	st, err := jobs.Encode(&jobs.Result{
		Kind:   jobs.KindProcvar,
		Spec:   jobs.Spec{Kind: jobs.KindProcvar, Seed: seed},
		Tables: tables,
	})
	if err == nil {
		_, err = w.Write(append(st.Body, '\n'))
	}
	return err
}
