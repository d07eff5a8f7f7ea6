package cell

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestRichASICContents(t *testing.T) {
	lib := RichASIC()
	if !lib.Has(FuncAnd2) || !lib.Has(FuncOr3) || !lib.Has(FuncBuf) {
		t.Fatal("rich library must have dual-polarity gates")
	}
	if got := len(lib.DriveLadder(FuncNand2)); got != len(richDrives) {
		t.Fatalf("rich NAND2 drive ladder has %d entries, want %d", got, len(richDrives))
	}
	if lib.Continuous {
		t.Fatal("ASIC library must not allow continuous sizing")
	}
	if lib.HasDomino() {
		t.Fatal("ASIC library must not offer domino cells")
	}
	if lib.DefaultSeq(2) == nil {
		t.Fatal("rich library needs sequential cells")
	}
}

func TestPoorASICContents(t *testing.T) {
	lib := PoorASIC()
	if lib.Has(FuncAnd2) || lib.Has(FuncOr2) || lib.Has(FuncBuf) {
		t.Fatal("poor library must lack dual-polarity gates")
	}
	if got := len(lib.DriveLadder(FuncNand2)); got != 2 {
		t.Fatalf("poor NAND2 ladder has %d drives, want 2", got)
	}
}

func TestCustomLibrary(t *testing.T) {
	lib := Custom()
	if !lib.Continuous {
		t.Fatal("custom library must permit continuous sizing")
	}
	if !lib.HasDomino() {
		t.Fatal("custom library must offer domino cells")
	}
	if len(lib.DominoCells(FuncAnd2)) == 0 {
		t.Fatal("custom library needs domino AND2")
	}
	if len(lib.DominoCells(FuncNand2)) != 0 {
		t.Fatal("domino pool must not contain inverting functions")
	}
}

func TestBestForLoadPicksLargerAtHighLoad(t *testing.T) {
	lib := RichASIC()
	small, err := lib.BestForLoad(FuncInv, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := lib.BestForLoad(FuncInv, 400)
	if err != nil {
		t.Fatal(err)
	}
	if big.Drive <= small.Drive {
		t.Fatalf("heavy load picked drive %g, light load %g", big.Drive, small.Drive)
	}
	if small.Drive != 1 {
		t.Fatalf("light load should pick X1, got X%g", small.Drive)
	}
}

func TestBestForLoadMeetsEffortTarget(t *testing.T) {
	lib := RichASIC()
	largest := lib.Largest(FuncNor2)
	f := func(loadSeed uint16) bool {
		load := units.Cap(1 + float64(loadSeed%1000))
		best, err := lib.BestForLoad(FuncNor2, load)
		if err != nil {
			return false
		}
		effort := float64(load) / best.Drive
		if effort > TargetEffortDelay && best != largest {
			return false // missed the target with headroom available
		}
		// No strictly smaller cell may also meet the target.
		for _, c := range lib.Cells(FuncNor2) {
			if c.Drive < best.Drive && float64(load)/c.Drive <= TargetEffortDelay {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBestForLoadContinuous(t *testing.T) {
	lib := Custom()
	c, err := lib.BestForLoad(FuncInv, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(100/c.Drive-TargetEffortDelay) > 1e-9 {
		t.Fatalf("continuous selection effort = %g, want %g", 100/c.Drive, TargetEffortDelay)
	}
}

func TestForDriveSnapsNearest(t *testing.T) {
	lib := RichASIC()
	c, err := lib.ForDrive(FuncNand2, 5.2)
	if err != nil {
		t.Fatal(err)
	}
	// Ladder has 4 and 6; 5.2 is nearer 6.
	if c.Drive != 6 {
		t.Fatalf("snap(5.2) = %g, want 6", c.Drive)
	}
	c, _ = lib.ForDrive(FuncNand2, 5.0) // tie: round up
	if c.Drive != 6 {
		t.Fatalf("snap(5.0) = %g, want 6 (round up on tie)", c.Drive)
	}
}

func TestForDriveContinuous(t *testing.T) {
	lib := Custom()
	c, err := lib.ForDrive(FuncNand2, 5.37)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Drive-5.37) > 1e-12 {
		t.Fatalf("continuous library returned drive %g, want 5.37", c.Drive)
	}
}

func TestNextDriveUp(t *testing.T) {
	lib := RichASIC()
	c, _ := lib.ForDrive(FuncInv, 4)
	up := lib.NextDriveUp(c)
	if up == nil || up.Drive != 6 {
		t.Fatalf("next drive above 4 should be 6, got %v", up)
	}
	top := lib.Largest(FuncInv)
	if lib.NextDriveUp(top) != nil {
		t.Fatal("largest cell must have no next drive")
	}
}

func TestDominoForDrive(t *testing.T) {
	lib := Custom()
	c, err := lib.DominoForDrive(FuncAnd2, 3.3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Family != Domino {
		t.Fatalf("got family %v, want domino", c.Family)
	}
	if math.Abs(c.Drive-3.3) > 1e-12 {
		t.Fatalf("continuous domino drive = %g, want 3.3", c.Drive)
	}
	if _, err := RichASIC().DominoForDrive(FuncAnd2, 1); err == nil {
		t.Fatal("rich ASIC should have no domino cells")
	}
}

func TestLibrarySizeAndString(t *testing.T) {
	lib := RichASIC()
	if lib.Size() != len(allStaticFuncs)*len(richDrives) {
		t.Fatalf("size = %d, want %d", lib.Size(), len(allStaticFuncs)*len(richDrives))
	}
	if lib.String() == "" {
		t.Fatal("empty library description")
	}
	if got := len(lib.Functions()); got != len(allStaticFuncs) {
		t.Fatalf("functions = %d, want %d", got, len(allStaticFuncs))
	}
}

func TestSmallestLargest(t *testing.T) {
	lib := RichASIC()
	if s := lib.Smallest(FuncXor2); s == nil || s.Drive != 1 {
		t.Fatalf("smallest XOR2 = %v, want X1", s)
	}
	if l := lib.Largest(FuncXor2); l == nil || l.Drive != 32 {
		t.Fatalf("largest XOR2 = %v, want X32", l)
	}
	if lib.Smallest(FuncInvalid) != nil {
		t.Fatal("missing function must return nil")
	}
}

// TestResizeForLoadAgreesWithBestForLoad: resizing an existing cell
// keeps it exactly when BestForLoad's pick has its drive, and otherwise
// returns a cell identical to that pick, on continuous, rich and
// two-drive libraries.
func TestResizeForLoadAgreesWithBestForLoad(t *testing.T) {
	for _, lib := range []*Library{Custom(), RichASIC(), PoorASIC()} {
		for _, f := range lib.Functions() {
			currents := append([]*Cell{NewStatic(f, 2.5)}, lib.Cells(f)...)
			for _, cur := range currents {
				for _, load := range []units.Cap{0, 1, 3.999, 4, 10, units.Cap(cur.Drive * TargetEffortDelay), 57.3, 500} {
					pick, err := lib.BestForLoad(f, load)
					if err != nil {
						t.Fatal(err)
					}
					got, err := lib.ResizeForLoad(cur, load)
					if err != nil {
						t.Fatal(err)
					}
					switch {
					case pick.Drive == cur.Drive && got != cur:
						t.Errorf("%s %v: load %v replaced a cell already at drive %v", lib.Name, f, load, cur.Drive)
					case pick.Drive != cur.Drive && *got != *pick:
						t.Errorf("%s %v: load %v resized to %+v, BestForLoad picks %+v", lib.Name, f, load, *got, *pick)
					}
				}
			}
		}
	}
}
