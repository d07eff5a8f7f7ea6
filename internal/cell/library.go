package cell

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/units"
)

// Library is a characterized standard-cell library: for each function, the
// set of available drive strengths, plus the sequential elements, plus the
// methodology flags that govern what downstream tools may do with it.
type Library struct {
	Name string

	// Continuous reports that sizing tools may realize any drive
	// strength, not just the discrete cells present. This is the custom
	// transistor-level-design capability of section 6: a discrete
	// library only approximates continuous sizing.
	Continuous bool

	byFunc map[Func][]*Cell // static cells, sorted by Drive ascending
	domino map[Func][]*Cell // domino cells, sorted by Drive ascending
	seq    []*SeqCell
}

// NewLibrary creates an empty library.
func NewLibrary(name string) *Library {
	return &Library{
		Name:   name,
		byFunc: make(map[Func][]*Cell),
		domino: make(map[Func][]*Cell),
	}
}

// Add inserts a combinational cell, keeping drives sorted. Static and
// domino cells are kept in separate pools: mapping tools only draw from
// the static pool, and internal/dynlogic explicitly swaps critical-path
// gates into the domino pool.
func (l *Library) Add(c *Cell) {
	pool := l.byFunc
	if c.Family == Domino {
		pool = l.domino
	}
	cells := append(pool[c.Func], c)
	sort.Slice(cells, func(i, j int) bool { return cells[i].Drive < cells[j].Drive })
	pool[c.Func] = cells
}

// DominoCells returns the drive-sorted domino cells for f (nil if none).
func (l *Library) DominoCells(f Func) []*Cell { return l.domino[f] }

// HasDomino reports whether the library offers any domino cells.
func (l *Library) HasDomino() bool { return len(l.domino) > 0 }

// DominoForDrive returns the domino cell for f nearest the requested
// drive, synthesizing the exact drive when the library is continuous.
func (l *Library) DominoForDrive(f Func, drive float64) (*Cell, error) {
	cells := l.domino[f]
	if len(cells) == 0 {
		return nil, fmt.Errorf("cell: library %s has no domino cell for %v", l.Name, f)
	}
	if l.Continuous {
		return NewDomino(f, drive)
	}
	best := cells[0]
	bestDist := math.Abs(cells[0].Drive - drive)
	for _, c := range cells[1:] {
		d := math.Abs(c.Drive - drive)
		if d < bestDist || (d == bestDist && c.Drive > best.Drive) {
			best, bestDist = c, d
		}
	}
	return best, nil
}

// AddSeq inserts a sequential cell.
func (l *Library) AddSeq(s *SeqCell) { l.seq = append(l.seq, s) }

// Has reports whether any cell implements the function.
func (l *Library) Has(f Func) bool { return len(l.byFunc[f]) > 0 }

// Cells returns the drive-sorted cells implementing f (nil if none).
func (l *Library) Cells(f Func) []*Cell { return l.byFunc[f] }

// Functions returns the functions present, in a stable order.
func (l *Library) Functions() []Func {
	fs := make([]Func, 0, len(l.byFunc))
	for f := range l.byFunc {
		fs = append(fs, f)
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
	return fs
}

// Smallest returns the minimum-drive cell for f, or nil.
func (l *Library) Smallest(f Func) *Cell {
	cells := l.byFunc[f]
	if len(cells) == 0 {
		return nil
	}
	return cells[0]
}

// Largest returns the maximum-drive cell for f, or nil.
func (l *Library) Largest(f Func) *Cell {
	cells := l.byFunc[f]
	if len(cells) == 0 {
		return nil
	}
	return cells[len(cells)-1]
}

// TargetEffortDelay is the per-stage effort delay (in tau) drive selection
// aims for: the classic optimum stage effort of about 4 (an FO4-like
// stage). Since effort delay is load/drive in this model, the selected
// drive is the smallest with drive >= load/TargetEffortDelay.
const TargetEffortDelay = 4.0

// BestForLoad returns the smallest cell implementing f whose effort delay
// driving the load does not exceed TargetEffortDelay, or the largest cell
// when even it is overloaded. Minimizing delay alone would always pick the
// largest drive (parasitic delay is size-independent); targeting stage
// effort is what real sizing does, balancing this stage against the load
// it presents to its driver.
func (l *Library) BestForLoad(f Func, load units.Cap) (*Cell, error) {
	c, drive, err := l.pickForLoad(f, load)
	if err != nil || c != nil {
		return c, err
	}
	return NewStatic(f, drive), nil
}

// ResizeForLoad is BestForLoad for a gate that already has cell c: it
// returns c itself when the selected drive equals c's, and otherwise
// the selected cell, fabricating one only in that case on a continuous
// library.
func (l *Library) ResizeForLoad(c *Cell, load units.Cap) (*Cell, error) {
	best, drive, err := l.pickForLoad(c.Func, load)
	switch {
	case err != nil:
		return nil, err
	case drive == c.Drive:
		return c, nil
	case best == nil:
		return NewStatic(c.Func, drive), nil
	}
	return best, nil
}

// pickForLoad is BestForLoad's selection: the library cell it picks and
// its drive, or a nil cell and the exact drive to fabricate on a
// continuous library.
func (l *Library) pickForLoad(f Func, load units.Cap) (*Cell, float64, error) {
	cells := l.byFunc[f]
	if len(cells) == 0 {
		return nil, 0, fmt.Errorf("cell: library %s has no cell for %v", l.Name, f)
	}
	need := float64(load) / TargetEffortDelay
	if l.Continuous && need > cells[0].Drive {
		return nil, need, nil
	}
	for _, c := range cells {
		if c.Drive >= need {
			return c, c.Drive, nil
		}
	}
	last := cells[len(cells)-1]
	return last, last.Drive, nil
}

// ForDrive returns the discrete cell for f whose drive is nearest the
// requested continuous drive, rounding up on ties (the conservative snap).
// When the library is Continuous it fabricates a cell at exactly that
// drive.
func (l *Library) ForDrive(f Func, drive float64) (*Cell, error) {
	cells := l.byFunc[f]
	if len(cells) == 0 {
		return nil, fmt.Errorf("cell: library %s has no cell for %v", l.Name, f)
	}
	if l.Continuous {
		return NewStatic(f, drive), nil
	}
	best := cells[0]
	bestDist := math.Abs(cells[0].Drive - drive)
	for _, c := range cells[1:] {
		d := math.Abs(c.Drive - drive)
		if d < bestDist || (d == bestDist && c.Drive > best.Drive) {
			best, bestDist = c, d
		}
	}
	return best, nil
}

// NextDriveUp returns the cell one discrete drive step above c, or nil if c
// is already the largest (or the library is continuous, in which case the
// caller should scale drives directly).
func (l *Library) NextDriveUp(c *Cell) *Cell {
	cells := l.byFunc[c.Func]
	for i, cand := range cells {
		if cand.Drive > c.Drive {
			return cells[i]
		}
	}
	return nil
}

// DefaultSeq returns the library's preferred register at drive nearest the
// request, or nil if the library has no sequential cells.
func (l *Library) DefaultSeq(drive float64) *SeqCell {
	if len(l.seq) == 0 {
		return nil
	}
	best := l.seq[0]
	for _, s := range l.seq[1:] {
		if math.Abs(s.Drive-drive) < math.Abs(best.Drive-drive) {
			best = s
		}
	}
	return best
}

// SeqCells returns all sequential cells.
func (l *Library) SeqCells() []*SeqCell { return l.seq }

// Size reports the number of combinational cells, static and domino.
func (l *Library) Size() int {
	n := 0
	for _, cells := range l.byFunc {
		n += len(cells)
	}
	for _, cells := range l.domino {
		n += len(cells)
	}
	return n
}

func (l *Library) String() string {
	return fmt.Sprintf("%s: %d cells, %d functions, %d sequential",
		l.Name, l.Size(), len(l.byFunc), len(l.seq))
}

// allStaticFuncs is the full dual-polarity function set of a rich library.
var allStaticFuncs = []Func{
	FuncInv, FuncBuf,
	FuncNand2, FuncNand3, FuncNand4,
	FuncNor2, FuncNor3, FuncNor4,
	FuncAnd2, FuncAnd3, FuncAnd4,
	FuncOr2, FuncOr3, FuncOr4,
	FuncXor2, FuncXnor2, FuncMux2,
	FuncAoi21, FuncAoi22, FuncOai21, FuncOai22,
	FuncMaj3,
}

// richDrives is a production-grade drive ladder.
var richDrives = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}

// RichASIC builds a well-stocked ASIC library: dual polarities, complex
// gates, ten drive strengths, guard-banded flip-flops. This is the library
// the paper says ASIC designers *should* be using (section 6.2).
func RichASIC() *Library {
	l := NewLibrary("rich-asic")
	for _, f := range allStaticFuncs {
		for _, d := range richDrives {
			l.Add(NewStatic(f, d))
		}
	}
	for _, d := range []float64{1, 2, 4, 8} {
		l.AddSeq(ASICFlipFlop(d))
		l.AddSeq(TransparentLatch(d))
	}
	return l
}

// PoorASIC builds the impoverished library of section 6.1: inverting gates
// only (no dual polarity), two drive strengths, and the same guard-banded
// flip-flops. The paper estimates such a library costs roughly 25% in
// speed against a rich one.
func PoorASIC() *Library {
	l := NewLibrary("poor-asic")
	funcs := []Func{FuncInv, FuncNand2, FuncNand3, FuncNand4, FuncNor2, FuncNor3, FuncXnor2, FuncAoi21, FuncOai21}
	for _, f := range funcs {
		for _, d := range []float64{1, 4} {
			l.Add(NewStatic(f, d))
		}
	}
	for _, d := range []float64{1, 4} {
		l.AddSeq(ASICFlipFlop(d))
	}
	return l
}

// Custom builds a custom-methodology "library": the full static function
// set with continuous sizing permitted, low-overhead sequential elements,
// and domino cells available for critical paths.
func Custom() *Library {
	l := NewLibrary("custom")
	l.Continuous = true
	for _, f := range allStaticFuncs {
		for _, d := range richDrives {
			l.Add(NewStatic(f, d))
		}
	}
	for _, f := range allStaticFuncs {
		if f.Inverting() {
			continue
		}
		for _, d := range richDrives {
			dc, err := NewDomino(f, d)
			if err != nil {
				// Non-inverting functions always build; an error
				// here is a programming bug in the tables.
				panic(err)
			}
			l.Add(dc)
		}
	}
	for _, d := range []float64{1, 2, 4, 8} {
		l.AddSeq(CustomFlipFlop(d))
		l.AddSeq(CustomPulseLatch(d))
		l.AddSeq(TransparentLatch(d))
	}
	return l
}

// RestrictDrives derives a library containing only the requested drive
// strengths of src (keeping all functions and sequential cells). This
// isolates the paper's "library with only two drive strengths" comparison
// from the dual-polarity axis.
func RestrictDrives(src *Library, drives ...float64) *Library {
	keep := make(map[float64]bool, len(drives))
	for _, d := range drives {
		keep[d] = true
	}
	l := NewLibrary(fmt.Sprintf("%s-drives%v", src.Name, drives))
	for f, cells := range src.byFunc {
		for _, c := range cells {
			if keep[c.Drive] {
				l.Add(c)
			}
		}
		_ = f
	}
	for f, cells := range src.domino {
		for _, c := range cells {
			if keep[c.Drive] {
				l.Add(c)
			}
		}
		_ = f
	}
	for _, s := range src.seq {
		l.AddSeq(s)
	}
	return l
}

// DriveLadder reports the distinct drive strengths available for f.
func (l *Library) DriveLadder(f Func) []float64 {
	cells := l.byFunc[f]
	drives := make([]float64, 0, len(cells))
	for _, c := range cells {
		if len(drives) == 0 || drives[len(drives)-1] != c.Drive {
			drives = append(drives, c.Drive)
		}
	}
	return drives
}
