// Package cell models standard-cell libraries: combinational cells with
// logical-effort timing, sequential cells with setup/hold/clock-to-Q
// overheads, and builders for the library styles the paper contrasts
// (rich ASIC, impoverished two-drive ASIC, custom-quality, and domino).
//
// Delay follows the method of logical effort. A cell of drive strength s
// implementing a function with logical effort g and parasitic delay p has
// per-pin input capacitance Cin = s*g (in units of the minimum inverter's
// input capacitance) and pin-to-output delay
//
//	d = p + g * (Cload / Cin) = p + Cload/s   [tau]
//
// so richer drive selections directly buy effort delay, which is exactly
// the mechanism behind the paper's library-richness experiments (section 6).
package cell

import (
	"fmt"
	"strconv"

	"repro/internal/units"
)

// Func identifies the logic function a combinational cell implements.
type Func int

// Combinational cell functions. AND/OR/buffer variants are the
// "dual polarity" cells: a library without them must burn an inverter to
// recover the positive sense of a signal.
const (
	FuncInvalid Func = iota
	FuncInv
	FuncBuf
	FuncNand2
	FuncNand3
	FuncNand4
	FuncNor2
	FuncNor3
	FuncNor4
	FuncAnd2
	FuncAnd3
	FuncAnd4
	FuncOr2
	FuncOr3
	FuncOr4
	FuncXor2
	FuncXnor2
	FuncMux2
	FuncAoi21
	FuncAoi22
	FuncOai21
	FuncOai22
	FuncMaj3 // majority-of-3: the full-adder carry function
	numFuncs
)

var funcNames = map[Func]string{
	FuncInv: "INV", FuncBuf: "BUF",
	FuncNand2: "NAND2", FuncNand3: "NAND3", FuncNand4: "NAND4",
	FuncNor2: "NOR2", FuncNor3: "NOR3", FuncNor4: "NOR4",
	FuncAnd2: "AND2", FuncAnd3: "AND3", FuncAnd4: "AND4",
	FuncOr2: "OR2", FuncOr3: "OR3", FuncOr4: "OR4",
	FuncXor2: "XOR2", FuncXnor2: "XNOR2", FuncMux2: "MUX2",
	FuncAoi21: "AOI21", FuncAoi22: "AOI22",
	FuncOai21: "OAI21", FuncOai22: "OAI22",
	FuncMaj3: "MAJ3",
}

func (f Func) String() string {
	if s, ok := funcNames[f]; ok {
		return s
	}
	return fmt.Sprintf("Func(%d)", int(f))
}

// Inputs returns the number of data inputs of the function.
func (f Func) Inputs() int {
	switch f {
	case FuncInv, FuncBuf:
		return 1
	case FuncNand2, FuncNor2, FuncAnd2, FuncOr2, FuncXor2, FuncXnor2:
		return 2
	case FuncNand3, FuncNor3, FuncAnd3, FuncOr3, FuncAoi21, FuncOai21, FuncMaj3, FuncMux2:
		return 3
	case FuncNand4, FuncNor4, FuncAnd4, FuncOr4, FuncAoi22, FuncOai22:
		return 4
	}
	return 0
}

// Inverting reports whether the function's output is the complemented sense
// of its inputs. Static CMOS implements inverting functions in one stage;
// the non-inverting variants below cost an internal inverter stage, which
// is reflected in their higher parasitic delay and effort.
func (f Func) Inverting() bool {
	switch f {
	case FuncInv, FuncNand2, FuncNand3, FuncNand4,
		FuncNor2, FuncNor3, FuncNor4,
		FuncXnor2, FuncAoi21, FuncAoi22, FuncOai21, FuncOai22:
		return true
	}
	return false
}

// Family distinguishes the circuit family a cell belongs to.
type Family int

const (
	// Static is conventional static CMOS.
	Static Family = iota
	// Domino is precharged dynamic logic. Domino cells are
	// non-inverting, faster, and carry noise/clocking restrictions that
	// internal/dynlogic enforces.
	Domino
)

func (fa Family) String() string {
	if fa == Domino {
		return "domino"
	}
	return "static"
}

// logicalEffort gives g per input for static CMOS, from the standard
// logical-effort tables (Sutherland/Sproull/Harris), assuming a 2:1 P:N
// mobility ratio. Non-inverting forms are the inverting form followed by an
// inverter sized into the cell.
var logicalEffort = map[Func]float64{
	FuncInv:   1.0,
	FuncBuf:   1.0, // first stage is an inverter
	FuncNand2: 4.0 / 3.0,
	FuncNand3: 5.0 / 3.0,
	FuncNand4: 6.0 / 3.0,
	FuncNor2:  5.0 / 3.0,
	FuncNor3:  7.0 / 3.0,
	FuncNor4:  9.0 / 3.0,
	FuncAnd2:  4.0 / 3.0,
	FuncAnd3:  5.0 / 3.0,
	FuncAnd4:  6.0 / 3.0,
	FuncOr2:   5.0 / 3.0,
	FuncOr3:   7.0 / 3.0,
	FuncOr4:   9.0 / 3.0,
	FuncXor2:  4.0,
	FuncXnor2: 4.0,
	FuncMux2:  2.0,
	FuncAoi21: 2.0,
	FuncAoi22: 2.0,
	FuncOai21: 2.0,
	FuncOai22: 2.0,
	FuncMaj3:  2.0,
}

// parasitic gives p in tau for static CMOS (p_inv = 1).
var parasitic = map[Func]float64{
	FuncInv:   1.0,
	FuncBuf:   2.0,
	FuncNand2: 2.0,
	FuncNand3: 3.0,
	FuncNand4: 4.0,
	FuncNor2:  2.0,
	FuncNor3:  3.0,
	FuncNor4:  4.0,
	FuncAnd2:  3.0,
	FuncAnd3:  4.0,
	FuncAnd4:  5.0,
	FuncOr2:   3.0,
	FuncOr3:   4.0,
	FuncOr4:   5.0,
	FuncXor2:  4.0,
	FuncXnor2: 4.0,
	FuncMux2:  3.0,
	FuncAoi21: 3.0,
	FuncAoi22: 4.0,
	FuncOai21: 3.0,
	FuncOai22: 4.0,
	FuncMaj3:  4.0,
}

// transistors gives an approximate transistor count per function, used for
// the area model.
var transistors = map[Func]int{
	FuncInv: 2, FuncBuf: 4,
	FuncNand2: 4, FuncNand3: 6, FuncNand4: 8,
	FuncNor2: 4, FuncNor3: 6, FuncNor4: 8,
	FuncAnd2: 6, FuncAnd3: 8, FuncAnd4: 10,
	FuncOr2: 6, FuncOr3: 8, FuncOr4: 10,
	FuncXor2: 10, FuncXnor2: 10, FuncMux2: 12,
	FuncAoi21: 6, FuncAoi22: 8, FuncOai21: 6, FuncOai22: 8,
	FuncMaj3: 12,
}

// dominoSpeedup is the ratio by which a domino implementation reduces both
// logical effort and parasitic delay relative to static CMOS. The paper
// (section 7, citing the IBM 1.0 GHz design) puts domino combinational
// logic at 50% to 100% faster than static with the same function; 1.6
// sits inside that band.
const dominoSpeedup = 1.6

// Cell is one library cell: a function at a particular drive strength.
// Its name is a pure function of the cell (see Name), spelled only when
// something shows it.
type Cell struct {
	Func   Func
	Family Family

	// prefix is the family's name prefix: "" static, "DOM_" domino,
	// "DOM2_" dual-rail domino.
	prefix string

	// Drive is the size multiple s relative to a minimum template.
	Drive float64

	// G is the logical effort per input.
	G float64

	// P is the parasitic delay in tau.
	P units.Tau

	// Area is in minimum-inverter-equivalent units.
	Area float64

	// LeakNW is the leakage in arbitrary normalized units (scales with
	// transistor width); used by internal/power.
	LeakNW float64
}

// InputCap returns the capacitance presented by one input pin,
// in minimum-inverter input capacitance units.
func (c *Cell) InputCap() units.Cap {
	return units.Cap(c.Drive * c.G)
}

// Delay returns the pin-to-output delay driving the given load.
func (c *Cell) Delay(load units.Cap) units.Tau {
	return c.P + units.Tau(float64(load)/c.Drive)
}

// Inputs returns the number of data inputs of the cell.
func (c *Cell) Inputs() int { return c.Func.Inputs() }

// Name spells the cell's library name, such as NAND2_X4, DOM_AND2_X2 or
// NAND2_X3.7142857142857144 for a drive fabricated by continuous sizing.
func (c *Cell) Name() string { return cellName(c.prefix, c.Func, c.Drive) }

func (c *Cell) String() string { return c.Name() }

// cellName spells prefix + f + "_X" + drive exactly as
// fmt.Sprintf("%s%v_X%g", prefix, f, drive) does, without fmt.
func cellName(prefix string, f Func, drive float64) string {
	b := make([]byte, 0, 32)
	b = append(b, prefix...)
	b = append(b, f.String()...)
	b = append(b, "_X"...)
	b = strconv.AppendFloat(b, drive, 'g', -1, 64)
	return string(b)
}

// NewStatic builds a static CMOS cell for the given function and drive.
// It panics on an unknown function; library construction is init-time
// configuration, not data-dependent work.
func NewStatic(f Func, drive float64) *Cell {
	g, ok := logicalEffort[f]
	if !ok {
		panic(fmt.Sprintf("cell: no logical effort data for %v", f))
	}
	if drive <= 0 {
		panic(fmt.Sprintf("cell: non-positive drive %g for %v", drive, f))
	}
	t := float64(transistors[f])
	return &Cell{
		Func:   f,
		Family: Static,
		Drive:  drive,
		G:      g,
		P:      units.Tau(parasitic[f]),
		Area:   t / 2 * drive,
		LeakNW: t * drive,
	}
}

// NewDomino builds a domino cell for the given function and drive.
// Domino implements only non-inverting functions (the output of a domino
// gate is taken after its static output inverter, so the composite gate
// computes AND/OR-class functions).
func NewDomino(f Func, drive float64) (*Cell, error) {
	if f.Inverting() {
		return nil, fmt.Errorf("cell: domino cannot implement inverting function %v", f)
	}
	g, ok := logicalEffort[f]
	if !ok {
		return nil, fmt.Errorf("cell: no logical effort data for %v", f)
	}
	t := float64(transistors[f]) * 0.75 // dynamic gates need no PMOS pull-up network
	return &Cell{
		prefix: "DOM_",
		Func:   f,
		Family: Domino,
		Drive:  drive,
		G:      g / dominoSpeedup,
		P:      units.Tau(parasitic[f] / dominoSpeedup),
		Area:   t / 2 * drive,
		LeakNW: t * drive * 1.5, // precharge clocking burns extra power
	}, nil
}

// DominoSpeedup reports the modeled static-to-domino combinational speedup
// ratio, exposed for the section 7 experiment.
func DominoSpeedup() float64 { return dominoSpeedup }

// NewDominoDualRail builds a dual-rail domino cell for any function,
// including inverting and XOR-class ones: dual-rail domino computes both
// polarities with two precharged networks, so it escapes the
// non-inverting restriction at roughly twice the area and power (this is
// how custom designs ran domino XORs and muxes). Speed matches
// single-rail domino.
func NewDominoDualRail(f Func, drive float64) (*Cell, error) {
	g, ok := logicalEffort[f]
	if !ok {
		return nil, fmt.Errorf("cell: no logical effort data for %v", f)
	}
	if drive <= 0 {
		return nil, fmt.Errorf("cell: non-positive drive %g for dual-rail %v", drive, f)
	}
	t := float64(transistors[f]) * 1.5 // two dynamic networks, no PMOS trees
	return &Cell{
		prefix: "DOM2_",
		Func:   f,
		Family: Domino,
		Drive:  drive,
		G:      g / dominoSpeedup,
		P:      units.Tau(parasitic[f] / dominoSpeedup),
		Area:   t / 2 * drive,
		LeakNW: t * drive * 2,
	}, nil
}
