package cell

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestInverterFO4Identity(t *testing.T) {
	// An X1 inverter driving four copies of itself must take exactly
	// one FO4 = 5 tau. This anchors the whole delay calibration.
	inv := NewStatic(FuncInv, 1)
	load := units.Cap(4 * float64(inv.InputCap()))
	if got := inv.Delay(load); math.Abs(float64(got)-units.TauPerFO4) > 1e-12 {
		t.Fatalf("FO4 delay = %g tau, want %g", float64(got), units.TauPerFO4)
	}
}

func TestDriveScalingCancelsLoad(t *testing.T) {
	// Doubling drive must halve the effort component of delay.
	small := NewStatic(FuncNand2, 2)
	big := NewStatic(FuncNand2, 4)
	load := units.Cap(20)
	ds := small.Delay(load) - small.P
	db := big.Delay(load) - big.P
	if math.Abs(float64(ds)/float64(db)-2) > 1e-12 {
		t.Fatalf("effort ratio = %g, want 2", float64(ds)/float64(db))
	}
}

func TestSelfLoadedDelayIndependentOfDrive(t *testing.T) {
	// A gate driving a copy of itself has drive-independent delay:
	// d = p + g (h = 1). Property-check across drives and functions.
	f := func(driveSeed uint8, fnSeed uint8) bool {
		drive := 1 + float64(driveSeed%31)
		fns := []Func{FuncInv, FuncNand2, FuncNor3, FuncXor2, FuncAoi21}
		fn := fns[int(fnSeed)%len(fns)]
		c := NewStatic(fn, drive)
		d := c.Delay(c.InputCap())
		want := c.P + units.Tau(c.G)
		return math.Abs(float64(d-want)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInvertingClassification(t *testing.T) {
	cases := map[Func]bool{
		FuncInv: true, FuncNand2: true, FuncNor4: true, FuncXnor2: true,
		FuncAoi21: true, FuncOai22: true,
		FuncBuf: false, FuncAnd2: false, FuncOr4: false, FuncXor2: false,
		FuncMux2: false, FuncMaj3: false,
	}
	for f, want := range cases {
		if got := f.Inverting(); got != want {
			t.Errorf("%v.Inverting() = %v, want %v", f, got, want)
		}
	}
}

func TestDominoRejectsInvertingFunctions(t *testing.T) {
	if _, err := NewDomino(FuncNand2, 1); err == nil {
		t.Fatal("domino NAND2 should be rejected")
	}
	if _, err := NewDomino(FuncAnd2, 1); err != nil {
		t.Fatalf("domino AND2 should build: %v", err)
	}
}

func TestDominoFasterThanStatic(t *testing.T) {
	st := NewStatic(FuncAnd2, 4)
	dom, err := NewDomino(FuncAnd2, 4)
	if err != nil {
		t.Fatal(err)
	}
	load := units.Cap(16)
	ds := st.Delay(load)
	dd := dom.Delay(load)
	// The paper's band: 50% to 100% faster. Our model sits at 1.6x on
	// the p+g components; with equal drive the effort term ratio is
	// load-dependent, so compare at matched fanout-of-4 loading.
	load4 := units.Cap(4 * float64(st.InputCap()))
	ratio := float64(st.Delay(load4)) / float64(dom.Delay(units.Cap(4*float64(dom.InputCap()))))
	if ratio < 1.5 || ratio > 2.0 {
		t.Fatalf("domino speedup at FO4 loading = %.2f, want within [1.5, 2.0]", ratio)
	}
	_ = ds
	_ = dd
}

func TestFuncInputs(t *testing.T) {
	cases := map[Func]int{
		FuncInv: 1, FuncBuf: 1, FuncNand2: 2, FuncNand4: 4,
		FuncMux2: 3, FuncMaj3: 3, FuncAoi22: 4, FuncXor2: 2,
	}
	for f, want := range cases {
		if got := f.Inputs(); got != want {
			t.Errorf("%v.Inputs() = %d, want %d", f, got, want)
		}
	}
}

func TestSeqOverheads(t *testing.T) {
	asic := ASICFlipFlop(2)
	custom := CustomFlipFlop(2)
	pulse := CustomPulseLatch(2)
	if asic.Overhead() <= custom.Overhead() {
		t.Fatalf("ASIC FF overhead (%.1f FO4) should exceed custom (%.1f FO4)",
			asic.Overhead().FO4(), custom.Overhead().FO4())
	}
	if custom.Overhead() <= pulse.Overhead() {
		t.Fatalf("custom FF overhead should exceed pulse latch")
	}
	// ASIC FF overhead should be several FO4: the paper charges ~30%
	// of a short pipeline cycle to sequencing+skew for ASICs.
	if f := asic.Overhead().FO4(); f < 3 || f > 6 {
		t.Fatalf("ASIC FF overhead = %.2f FO4, want 3-6", f)
	}
}

func TestNewStaticPanicsOnBadDrive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on non-positive drive")
		}
	}()
	NewStatic(FuncInv, 0)
}

func TestFuncStringCoversAll(t *testing.T) {
	for f := FuncInv; f < numFuncs; f++ {
		if s := f.String(); s == "" || s[0] == 'F' && s != "FuncInvalid" && len(s) > 5 && s[:5] == "Func(" {
			t.Errorf("missing name for func %d: %q", int(f), s)
		}
	}
}

func TestDualRailDomino(t *testing.T) {
	// Dual-rail reaches inverting and XOR-class functions single-rail
	// cannot, at about twice the area and leak of single-rail, with the
	// same speed model.
	dr, err := NewDominoDualRail(FuncXor2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Family != Domino {
		t.Fatal("dual-rail must be a domino-family cell")
	}
	sr, err := NewDomino(FuncAnd2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if dr.P != NewStatic(FuncXor2, 4).P/units.Tau(DominoSpeedup()) {
		t.Fatalf("dual-rail parasitic should be static/%.1f", DominoSpeedup())
	}
	// Area ratio vs the corresponding single-rail template factor.
	if dr.Area <= sr.Area {
		t.Fatal("dual-rail XOR should cost more area than single-rail AND2")
	}
	if _, err := NewDominoDualRail(FuncNand2, 0); err == nil {
		t.Fatal("non-positive drive must be rejected")
	}
	if _, err := NewDominoDualRail(Func(99), 1); err == nil {
		t.Fatal("unknown function must be rejected")
	}
	// Inverting functions are exactly the point of dual-rail.
	if _, err := NewDominoDualRail(FuncNand3, 2); err != nil {
		t.Fatalf("dual-rail NAND3 should build: %v", err)
	}
}

func TestFamilyAndKindStrings(t *testing.T) {
	if Static.String() != "static" || Domino.String() != "domino" {
		t.Fatal("family strings wrong")
	}
	for _, k := range []SeqKind{FlipFlop, Latch, PulseLatch, SeqKind(9)} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
	if DominoSpeedup() != 1.6 {
		t.Fatalf("documented domino speedup = %g, want 1.6", DominoSpeedup())
	}
}

// TestCellNamesMatchFmt: Name spells the strings fmt.Sprintf("%v_X%g")
// and its domino forms give, over the library drive table plus drives
// that exercise every %g branch (fractions, shortest round-trip digits,
// and both exponent forms), and String is Name.
func TestCellNamesMatchFmt(t *testing.T) {
	drives := append([]float64{2.5, 0.1, 1.0 / 3, 1.15, 1.15 * 1.15 * 1.15, 12.345678901234567,
		1e-4, 1e-5, 1e-7, 123456, 1e20, 1e21, 1.5e300, math.SmallestNonzeroFloat64, math.MaxFloat64},
		richDrives...)
	for f := FuncInv; f < numFuncs; f++ {
		for _, d := range drives {
			c := NewStatic(f, d)
			if got, want := c.Name(), fmt.Sprintf("%v_X%g", f, d); got != want || c.String() != want {
				t.Errorf("NewStatic(%v, %v).Name = %q, String = %q, want %q", f, d, got, c.String(), want)
			}
			if dr, err := NewDominoDualRail(f, d); err != nil {
				t.Fatal(err)
			} else if want := fmt.Sprintf("DOM2_%v_X%g", f, d); dr.Name() != want {
				t.Errorf("NewDominoDualRail(%v, %v).Name = %q, want %q", f, d, dr.Name(), want)
			}
			if f.Inverting() {
				continue
			}
			if dc, err := NewDomino(f, d); err != nil {
				t.Fatal(err)
			} else if want := fmt.Sprintf("DOM_%v_X%g", f, d); dc.Name() != want {
				t.Errorf("NewDomino(%v, %v).Name = %q, want %q", f, d, dc.Name(), want)
			}
		}
	}
}
