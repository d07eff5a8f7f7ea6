package procvar

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

const nDies = 20000

func TestSampleDeterministic(t *testing.T) {
	c := NewProcess()
	a := c.Sample(100, 7)
	b := c.Sample(100, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the same dies")
		}
	}
	d := c.Sample(100, 8)
	same := true
	for i := range a {
		if a[i] != d[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical samples")
	}
}

func TestSampleCount(t *testing.T) {
	f := func(n uint16) bool {
		want := int(n%3000) + 1
		return len(NewProcess().Sample(want, 1)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileBasics(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	if got := Quantile(s, 0); got != 1 {
		t.Fatalf("q0 = %g, want 1", got)
	}
	if got := Quantile(s, 1); got != 5 {
		t.Fatalf("q1 = %g, want 5", got)
	}
	if got := Quantile(s, 0.5); got != 3 {
		t.Fatalf("median = %g, want 3", got)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
	// Quantile must not mutate its input.
	u := []float64{3, 1, 2}
	Quantile(u, 0.5)
	if u[0] != 3 || u[1] != 1 || u[2] != 2 {
		t.Fatal("quantile reordered the caller's slice")
	}
}

func TestQuantileMonotone(t *testing.T) {
	s := NewProcess().Sample(2000, 3)
	f := func(a, b uint8) bool {
		qa := float64(a) / 255
		qb := float64(b) / 255
		va, vb := Quantile(s, qa), Quantile(s, qb)
		if qa <= qb {
			return va <= vb+1e-12
		}
		return vb <= va+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTypicalAboveWorstCaseBand(t *testing.T) {
	// Section 8: typical silicon runs 60-70% above the quoted ASIC
	// worst case (guard-banded slow corner).
	speeds := NewProcess().Sample(nDies, 42)
	rep := Analyze(speeds)
	if rep.TypGain < 0.45 || rep.TypGain > 0.95 {
		t.Fatalf("typical-over-rated = %.0f%%, want 45-95%% (paper: 60-70%%)", 100*rep.TypGain)
	}
}

func TestFastTailBand(t *testing.T) {
	// Section 8: the fastest parts run 20-40% above typical on a young
	// process (Intel's 533-733 MHz 0.18um spread), narrowing later.
	young := Analyze(NewProcess().Sample(nDies, 1))
	mature := Analyze(MatureProcess().Sample(nDies, 1))
	if young.FastGain < 0.10 || young.FastGain > 0.45 {
		t.Fatalf("young fast tail = %.0f%%, want 10-45%%", 100*young.FastGain)
	}
	if mature.FastGain >= young.FastGain {
		t.Fatalf("maturity must narrow the fast tail: young %.0f%%, mature %.0f%%",
			100*young.FastGain, 100*mature.FastGain)
	}
	if mature.Median <= young.Median {
		t.Fatal("a mature line must produce faster median silicon")
	}
}

func TestNewProcessSpreadBand(t *testing.T) {
	// Initial production spans roughly 30-40% in speed.
	rep := Analyze(NewProcess().Sample(nDies, 9))
	if rep.Spread < 0.25 || rep.Spread > 0.55 {
		t.Fatalf("new-process spread = %.0f%%, want 25-55%% (paper: 30-40%%)", 100*rep.Spread)
	}
}

func TestFabToFabGapBand(t *testing.T) {
	// Section 8.1.2: identical designs differ 20-25% between companies'
	// fabs in the same technology.
	best := MatureProcess().Sample(nDies, 11)
	second := SecondTierFab().Sample(nDies, 12)
	gap := FabToFabGap(best, second)
	if gap < 0.15 || gap > 0.45 {
		t.Fatalf("fab-to-fab gap = %.0f%%, want 15-45%% (paper: 20-25%%)", 100*gap)
	}
}

func TestCustomAdvantageBand(t *testing.T) {
	// Section 8: overall, the fastest custom silicon may be ~90% faster
	// than an ASIC rated at worst case on a lesser fab.
	best := MatureProcess().Sample(nDies, 21)
	asic := SecondTierFab().Sample(nDies, 22)
	adv := CustomAdvantage(best, asic)
	if adv < 0.6 || adv > 1.4 {
		t.Fatalf("custom advantage = %.0f%%, want 60-140%% (paper: ~90%%)", 100*adv)
	}
}

func TestSpeedBinPartition(t *testing.T) {
	speeds := NewProcess().Sample(nDies, 5)
	floors := []float64{0.8, 0.9, 1.0, 1.1}
	bins := SpeedBin(speeds, floors)
	if len(bins) != 5 {
		t.Fatalf("got %d bins, want 5", len(bins))
	}
	total := 0
	fracs := 0.0
	for _, b := range bins {
		total += b.Count
		fracs += b.Frac
	}
	if total != nDies {
		t.Fatalf("bins hold %d dies, want %d", total, nDies)
	}
	if math.Abs(fracs-1) > 1e-9 {
		t.Fatalf("bin fractions sum to %g", fracs)
	}
	// Every die in bin i must satisfy its floor: spot-check by
	// construction via a sorted scan.
	sort.Float64s(speeds)
	if bins[4].Count > 0 && speeds[len(speeds)-1] < floors[3] {
		t.Fatal("top bin populated but no die qualifies")
	}
}

func TestSpeedBinProperty(t *testing.T) {
	f := func(seed int64) bool {
		speeds := NewProcess().Sample(500, seed)
		floors := []float64{0.85, 1.0}
		bins := SpeedBin(speeds, floors)
		n := 0
		for _, b := range bins {
			n += b.Count
		}
		return n == len(speeds)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEmptySampleIsZero: an empty or nil sample gives a zero report and
// zero bin fractions, not NaN.
func TestEmptySampleIsZero(t *testing.T) {
	for _, tc := range []struct {
		name   string
		speeds []float64
	}{
		{"nil", nil},
		{"empty", []float64{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if r := Analyze(tc.speeds); r != (SpeedReport{}) {
				t.Errorf("Analyze = %+v, want the zero report", r)
			}
			bins := SpeedBin(tc.speeds, []float64{0.9, 1.0})
			if len(bins) != 3 {
				t.Fatalf("got %d bins, want 3", len(bins))
			}
			for i, b := range bins {
				if b.Count != 0 || b.Frac != 0 {
					t.Errorf("bin %d = %+v, want Count 0 and Frac 0", i, b)
				}
			}
		})
	}
}

func TestTestedSpeedGainMatchesTypGain(t *testing.T) {
	// Section 8.3: testing parts individually recovers 30-40%+ over the
	// worst-case rating — by construction this equals the typical gain.
	speeds := NewProcess().Sample(nDies, 33)
	g := TestedSpeedGain(speeds)
	rep := Analyze(speeds)
	if math.Abs(g-rep.TypGain) > 1e-12 {
		t.Fatalf("tested gain %.3f != typical gain %.3f", g, rep.TypGain)
	}
	if g < 0.3 {
		t.Fatalf("tested-speed gain = %.0f%%, want >= 30%%", 100*g)
	}
}

func TestReportString(t *testing.T) {
	if Analyze(NewProcess().Sample(1000, 2)).String() == "" {
		t.Fatal("empty report")
	}
}

// sortedQuantile is Quantile's reference: interpolate on a fully sorted
// copy.
func sortedQuantile(speeds []float64, q float64) float64 {
	s := append([]float64(nil), speeds...)
	sort.Float64s(s)
	idx := q * float64(len(s)-1)
	lo := int(idx)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := idx - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// TestQuantileMatchesSortedReference: selection returns bit for bit what
// interpolating on a sorted copy returns, on random slices heavy with
// duplicates, sorted and reversed runs, and real speed samples, and it
// leaves its input as it was.
func TestQuantileMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var cases [][]float64
	for _, n := range []int{1, 2, 3, 5, 17, 100, 1001, 4000} {
		dup := make([]float64, n)
		asc := make([]float64, n)
		for i := range dup {
			dup[i] = float64(rng.Intn(1 + n/4))
			asc[i] = float64(i / 3)
		}
		desc := append([]float64(nil), asc...)
		slices.Reverse(desc)
		cases = append(cases, dup, asc, desc, NewProcess().Sample(n, int64(n)))
	}
	for ci, s := range cases {
		orig := append([]float64(nil), s...)
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.99, 1} {
			got, want := Quantile(s, q), sortedQuantile(s, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d (n=%d) q=%g: %v, sorted reference %v", ci, len(s), q, got, want)
			}
		}
		if !slices.Equal(s, orig) {
			t.Fatalf("case %d: Quantile modified its input", ci)
		}
	}
}
