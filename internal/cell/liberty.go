package cell

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/units"
)

// WriteLiberty emits a Liberty-style characterization of the library for
// the given process: per-cell area, pin capacitances in fF, and
// delay-vs-load lookup tables in ns, the way foundry .lib releases
// describe the cells whose richness section 6 is about. The dialect is a
// readable subset (enough to diff two libraries or feed a course tool),
// not a full Liberty implementation.
func WriteLiberty(w io.Writer, l *Library, p units.Process) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "library (%s) {\n", l.Name)
	fmt.Fprintf(bw, "  /* process %s */\n", p.Name)
	fmt.Fprintf(bw, "  time_unit : \"1ns\";\n")
	fmt.Fprintf(bw, "  capacitive_load_unit (1, ff);\n")
	fmt.Fprintf(bw, "  nom_voltage : %.2f;\n", p.Vdd)

	// Load points for the delay tables, in multiples of a minimum
	// inverter input.
	loads := []float64{1, 2, 4, 8, 16, 32}

	emitCell := func(c *Cell) {
		fmt.Fprintf(bw, "  cell (%s) {\n", c.Name())
		fmt.Fprintf(bw, "    area : %.2f;\n", c.Area)
		if c.Family == Domino {
			fmt.Fprintf(bw, "    /* domino: precharged dynamic gate */\n")
		}
		for i := 0; i < c.Inputs(); i++ {
			fmt.Fprintf(bw, "    pin (%c) { direction : input; capacitance : %.3f; }\n",
				'A'+rune(i), float64(c.InputCap())*p.CinFF)
		}
		fmt.Fprintf(bw, "    pin (Y) {\n      direction : output;\n      timing () {\n")
		fmt.Fprintf(bw, "        index_1 (\"")
		for i, ld := range loads {
			if i > 0 {
				fmt.Fprintf(bw, ", ")
			}
			fmt.Fprintf(bw, "%.1f", ld*p.CinFF)
		}
		fmt.Fprintf(bw, "\");\n        values (\"")
		for i, ld := range loads {
			if i > 0 {
				fmt.Fprintf(bw, ", ")
			}
			d := c.Delay(units.Cap(ld))
			fmt.Fprintf(bw, "%.4f", d.Picoseconds(p)/1000)
		}
		fmt.Fprintf(bw, "\");\n      }\n    }\n")
		fmt.Fprintf(bw, "  }\n")
	}

	for _, f := range l.Functions() {
		for _, c := range l.Cells(f) {
			emitCell(c)
		}
	}
	for _, f := range l.Functions() {
		for _, c := range l.DominoCells(f) {
			emitCell(c)
		}
	}
	for _, s := range l.SeqCells() {
		fmt.Fprintf(bw, "  cell (%s) {\n", s.Name)
		fmt.Fprintf(bw, "    area : %.2f;\n", s.Area)
		fmt.Fprintf(bw, "    ff (IQ) { clocked_on : CK; next_state : D; }\n")
		fmt.Fprintf(bw, "    pin (D) { direction : input; capacitance : %.3f;\n", float64(s.DCap)*p.CinFF)
		fmt.Fprintf(bw, "      timing () { timing_type : setup_rising; rise_constraint : %.4f; }\n",
			s.Setup.Picoseconds(p)/1000)
		fmt.Fprintf(bw, "      timing () { timing_type : hold_rising; rise_constraint : %.4f; }\n",
			s.Hold.Picoseconds(p)/1000)
		fmt.Fprintf(bw, "    }\n")
		fmt.Fprintf(bw, "    pin (CK) { direction : input; clock : true; capacitance : %.3f; }\n",
			float64(s.ClkCap)*p.CinFF)
		fmt.Fprintf(bw, "    pin (Q) { direction : output;\n")
		fmt.Fprintf(bw, "      timing () { timing_type : rising_edge; cell_rise : %.4f; }\n",
			s.ClkToQ.Picoseconds(p)/1000)
		fmt.Fprintf(bw, "    }\n  }\n")
	}
	fmt.Fprintf(bw, "}\n")
	return bw.Flush()
}
