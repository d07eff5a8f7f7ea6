// Package procvar models process variation and accessibility, the paper's
// second-largest factor (section 8, x1.90 overall): lot-to-lot,
// wafer-to-wafer, die-to-die and intra-die variation produce a spread of
// working silicon speeds; foundries quote ASIC libraries at a guard-banded
// worst case, while custom vendors speed-bin and sell the fast tail.
//
// Speeds throughout are multipliers relative to the nominal design speed
// of the process: 1.0 is a nominal die; 1.3 is a die 30% faster.
package procvar

import (
	"fmt"
	"math"
	"math/rand"
)

// Components are the variation magnitudes of one fabrication line.
// Sigmas are fractional (lognormal shape parameters).
type Components struct {
	// LotSigma, WaferSigma, DieSigma are the hierarchical variation
	// components.
	LotSigma, WaferSigma, DieSigma float64
	// IntraDieSigma is within-die variation; the critical path sees the
	// slowest of its segments, so intra-die variation only ever hurts.
	IntraDieSigma float64
	// PathGroups is the number of roughly independent critical-path
	// groups on a die (the max over them sets the die's speed).
	PathGroups int
	// MeanShift is the line's average speed relative to the technology
	// nominal: a freshly ramped line sits below 1.0; a mature tuned
	// line with a mid-generation shrink sits above.
	MeanShift float64
}

// Era presets: the paper observes 30-40% speed ranges when a process is
// young (Intel's first 0.18 um parts spanned 533-733 MHz) narrowing as it
// matures, with mid-life improvements (the 0.25 um 856 process shrink
// bought 18%).
func NewProcess() Components {
	return Components{LotSigma: 0.07, WaferSigma: 0.05, DieSigma: 0.05,
		IntraDieSigma: 0.04, PathGroups: 12, MeanShift: 0.95}
}

// MatureProcess is the same line after a year-plus of tuning.
func MatureProcess() Components {
	return Components{LotSigma: 0.04, WaferSigma: 0.03, DieSigma: 0.03,
		IntraDieSigma: 0.03, PathGroups: 12, MeanShift: 1.05}
}

// SecondTierFab is another company's plant in the "same" technology: the
// paper (section 8.1.2) puts identical ASIC designs 20-25% apart between
// foundries.
func SecondTierFab() Components {
	return Components{LotSigma: 0.08, WaferSigma: 0.06, DieSigma: 0.06,
		IntraDieSigma: 0.05, PathGroups: 12, MeanShift: 0.88}
}

// Sample draws n per-die speed multipliers (none when n <= 0). Dies are
// grouped into lots of 25 wafers of 40 dies, sharing their lot and wafer
// components, which is what makes the distribution clumpy in practice.
func (c Components) Sample(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	const diesPerWafer = 40
	const wafersPerLot = 25
	speeds := make([]float64, 0, max(n, 0))
	for len(speeds) < n {
		lot := math.Exp(rng.NormFloat64() * c.LotSigma)
		for w := 0; w < wafersPerLot && len(speeds) < n; w++ {
			wafer := math.Exp(rng.NormFloat64() * c.WaferSigma)
			for d := 0; d < diesPerWafer && len(speeds) < n; d++ {
				die := math.Exp(rng.NormFloat64() * c.DieSigma)
				speeds = append(speeds, c.MeanShift*lot*wafer*die*c.slowestGroup(rng))
			}
		}
	}
	return speeds
}

// expTie is the argument gap below which slowestGroup treats two
// intra-die draws as tied. For |x| <= 1 math.Exp is within a few ulps of
// e^x (TestExpAccuracy), while a gap above expTie separates the exact
// values by a factor of at least 1+1e-9, over 4e6 ulps: the smaller
// argument's exp is then certainly the smaller float.
const expTie = 1e-9

// slowestGroup draws the die's PathGroups intra-die multipliers
// exp(N(0, IntraDieSigma)) and returns the slowest, capped at 1: the die
// runs at the speed of its slowest critical-path group. It returns the
// same float as taking math.Exp of every draw, but exps only the least
// draw in [-1, 1], the draws within expTie above a least (almost never
// any) and any draw outside [-1, 1].
func (c Components) slowestGroup(rng *rand.Rand) float64 {
	worst := 1.0
	least := math.Inf(1) // the least draw in [-1, 1] so far, exped last
	for g := 0; g < c.PathGroups; g++ {
		x := rng.NormFloat64() * c.IntraDieSigma
		if x >= -1 && x <= 1 {
			if x < least {
				x, least = least, x // x is now the displaced least
			}
			if x-least > expTie {
				continue // its exp is certainly above least's
			}
		}
		if p := math.Exp(x); p < worst {
			worst = p
		}
	}
	if p := math.Exp(least); p < worst {
		worst = p
	}
	return worst
}

// Quantile returns the q-quantile (0..1) of the speeds: the linear
// interpolation between the two order statistics around q*(n-1). It
// reads them by selection on a copy, in the order sort.Float64s uses, so
// the answer is the sorted-copy answer without the sort.
func Quantile(speeds []float64, q float64) float64 {
	if len(speeds) == 0 {
		return 0
	}
	s := append([]float64(nil), speeds...)
	idx := q * float64(len(s)-1)
	lo := int(idx)
	if lo >= len(s)-1 {
		selectNth(s, len(s)-1)
		return s[len(s)-1]
	}
	selectNth(s, lo)
	// Everything after s[lo] is at or above it; the next order
	// statistic is the least of them.
	next := s[lo+1]
	for _, v := range s[lo+2:] {
		if floatLess(v, next) {
			next = v
		}
	}
	frac := idx - float64(lo)
	return s[lo]*(1-frac) + next*frac
}

// floatLess is sort.Float64s's order: NaNs first, then ascending.
func floatLess(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// selectNth reorders s so that s[k] holds the value a full sort would put
// there, with nothing greater before it and nothing less after it
// (quickselect with a three-way partition, so duplicates cost nothing).
func selectNth(s []float64, k int) {
	lo, hi := 0, len(s)-1
	for lo < hi {
		p := s[lo+(hi-lo)/2]
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch {
			case floatLess(s[i], p):
				s[lt], s[i] = s[i], s[lt]
				lt++
				i++
			case floatLess(p, s[i]):
				s[i], s[gt] = s[gt], s[i]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return
		}
	}
}

// WorstCaseRating is the speed a foundry quotes for ASIC libraries: a low
// quantile of the distribution, times the voltage/temperature guard-band
// derate (libraries are characterized at worst-case V and T, silicon in a
// box mostly is not).
const vtDerate = 0.80

// ASICRating returns the guard-banded worst-case speed quote for a line.
func ASICRating(speeds []float64) float64 {
	return Quantile(speeds, 0.01) * vtDerate
}

// SpeedReport summarizes one line's distribution the way section 8 does.
type SpeedReport struct {
	Rated    float64 // guard-banded ASIC worst-case quote
	Median   float64 // typical silicon
	Fast     float64 // 99th percentile (the binned fast tail)
	Spread   float64 // (p99 - p1) / median: visible bin range
	TypGain  float64 // Median/Rated - 1: "typical runs X% above worst case"
	FastGain float64 // Fast/Median - 1: "fastest parts X% above typical"
}

// Analyze builds the report from sampled speeds. An empty sample (or
// one whose median is zero) gives zero ratios, never NaN.
func Analyze(speeds []float64) SpeedReport {
	r := SpeedReport{
		Rated:  ASICRating(speeds),
		Median: Quantile(speeds, 0.5),
		Fast:   Quantile(speeds, 0.99),
	}
	if r.Rated > 0 {
		r.TypGain = r.Median/r.Rated - 1
	}
	if r.Median > 0 {
		r.Spread = (r.Fast - Quantile(speeds, 0.01)) / r.Median
		r.FastGain = r.Fast/r.Median - 1
	}
	return r
}

func (r SpeedReport) String() string {
	return fmt.Sprintf("rated %.2f, median %.2f (+%.0f%%), fast %.2f (+%.0f%% over median), spread %.0f%%",
		r.Rated, r.Median, 100*r.TypGain, r.Fast, 100*r.FastGain, 100*r.Spread)
}

// Bin is one speed grade.
type Bin struct {
	MinSpeed float64
	Count    int
	Frac     float64
}

// SpeedBin sorts dies into grades at the given ascending speed floors;
// dies below the first floor are discards (returned as the first bin with
// MinSpeed 0). This is the custom vendor's down-binning machinery. An
// empty sample leaves every bin's Frac at 0.
func SpeedBin(speeds []float64, floors []float64) []Bin {
	bins := make([]Bin, len(floors)+1)
	bins[0] = Bin{MinSpeed: 0}
	for i, f := range floors {
		bins[i+1] = Bin{MinSpeed: f}
	}
	for _, s := range speeds {
		k := 0
		for i := len(floors); i >= 1; i-- {
			if s >= floors[i-1] {
				k = i
				break
			}
		}
		bins[k].Count++
	}
	if len(speeds) == 0 {
		return bins
	}
	for i := range bins {
		bins[i].Frac = float64(bins[i].Count) / float64(len(speeds))
	}
	return bins
}

// TestedSpeedGain is the section 8.3 option for ASIC vendors willing to
// test every part instead of trusting the worst-case quote: the gain from
// selling parts at their measured speed (median) over the rating.
func TestedSpeedGain(speeds []float64) float64 {
	rated := ASICRating(speeds)
	if rated <= 0 {
		return 0
	}
	return Quantile(speeds, 0.5)/rated - 1
}

// FabToFabGap compares median silicon between two lines (section 8.1.2).
func FabToFabGap(a, b []float64) float64 {
	ma, mb := Quantile(a, 0.5), Quantile(b, 0.5)
	if mb == 0 {
		return 0
	}
	return ma/mb - 1
}

// CustomAdvantage is the section 8 headline: the best custom silicon
// (fast bin of the best, mature fab) against an ASIC quoted at guard-
// banded worst case on a second-tier fab.
func CustomAdvantage(bestFab, asicFab []float64) float64 {
	rated := ASICRating(asicFab)
	if rated <= 0 {
		return 0
	}
	return Quantile(bestFab, 0.99)/rated - 1
}
