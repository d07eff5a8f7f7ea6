package procvar

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// referenceSample is the plain sampler: math.Exp of every intra-die
// draw, the slowest kept. Sample must return the same floats.
func referenceSample(c Components, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	const diesPerWafer = 40
	const wafersPerLot = 25
	speeds := make([]float64, 0, n)
	for len(speeds) < n {
		lot := math.Exp(rng.NormFloat64() * c.LotSigma)
		for w := 0; w < wafersPerLot && len(speeds) < n; w++ {
			wafer := math.Exp(rng.NormFloat64() * c.WaferSigma)
			for d := 0; d < diesPerWafer && len(speeds) < n; d++ {
				die := math.Exp(rng.NormFloat64() * c.DieSigma)
				worst := 1.0
				for g := 0; g < c.PathGroups; g++ {
					p := math.Exp(rng.NormFloat64() * c.IntraDieSigma)
					if p < worst {
						worst = p
					}
				}
				speeds = append(speeds, c.MeanShift*lot*wafer*die*worst)
			}
		}
	}
	return speeds
}

// oracleLines is every fabrication line the flow and the CLIs sample,
// plus edge shapes: no path groups, one group, no intra-die variation,
// draws so close that every group ties (the all-exp fallback), and draws
// wide enough to leave exp's verified domain.
func oracleLines() []Components {
	lines := []Components{NewProcess(), MatureProcess(), SecondTierFab()}
	for m := 0; m <= 36; m++ {
		lines = append(lines, ProcessAt(float64(m)))
	}
	edge := func(f func(*Components)) Components {
		c := NewProcess()
		f(&c)
		return c
	}
	return append(lines,
		edge(func(c *Components) { c.PathGroups = 0 }),
		edge(func(c *Components) { c.PathGroups = 1 }),
		edge(func(c *Components) { c.IntraDieSigma = 0 }),
		edge(func(c *Components) { c.IntraDieSigma = 1e-12 }),
		edge(func(c *Components) { c.IntraDieSigma = 4e-10; c.PathGroups = 30 }),
		edge(func(c *Components) { c.IntraDieSigma = 0.6; c.PathGroups = 40 }),
	)
}

// TestSampleMatchesReference: bit for bit against the all-exp sampler,
// over every line, 240 seeds and die counts 1, 40, 1001 and 4000 (each
// line sees every count).
func TestSampleMatchesReference(t *testing.T) {
	lines := oracleLines()
	counts := []int{1, 40, 1001, 4000}
	for i := 0; i < 240; i++ {
		c := lines[i%len(lines)]
		n := counts[(i/len(lines))%len(counts)]
		seed := int64(i)*7919 + 1
		got, want := c.Sample(n, seed), referenceSample(c, n, seed)
		if len(got) != len(want) {
			t.Fatalf("line %d seed %d: %d dies, want %d", i%len(lines), seed, len(got), len(want))
		}
		for d := range want {
			if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
				t.Fatalf("line %+v seed %d n %d: die %d = %v, reference %v", c, seed, n, d, got[d], want[d])
			}
		}
	}
}

func TestSampleNonPositiveCount(t *testing.T) {
	for _, n := range []int{0, -1, -3, math.MinInt} {
		if got := NewProcess().Sample(n, 1); got == nil || len(got) != 0 {
			t.Errorf("Sample(%d) = %v, want an empty slice", n, got)
		}
	}
}

// TestExpAccuracy backs expTie's premise: on |x| <= 1, math.Exp is
// within 4 ulps of e^x computed in 128-bit math/big arithmetic, over the
// endpoints, a uniform grid and random points (100,007 in all).
func TestExpAccuracy(t *testing.T) {
	xs := []float64{-1, 1, 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-300, -1e-9, 1e-9}
	const grid = 50000
	for i := 0; i < grid; i++ {
		xs = append(xs, -1+2*float64(i)/(grid-1))
	}
	rng := rand.New(rand.NewSource(1))
	for len(xs) < 100007 {
		xs = append(xs, 2*rng.Float64()-1)
	}
	exact := newBigExp()
	got, diff := new(big.Float), new(big.Float)
	worst := 0.0
	for _, x := range xs {
		e := math.Exp(x)
		ulp := math.Nextafter(e, math.Inf(1)) - e
		d, _ := diff.Sub(got.SetFloat64(e), exact(x)).Float64()
		if d = math.Abs(d) / ulp; d > worst {
			worst = d
		}
		if d > 4 {
			t.Fatalf("math.Exp(%v) = %v is %.2f ulps from e^x", x, e, d)
		}
	}
	t.Logf("worst error over %d points: %.3f ulps", len(xs), worst)
}

// newBigExp returns e^x to 128 bits: the Taylor polynomial of e^(x/2^8)
// to degree 14 (truncation below 2^-140 for |x| <= 1) by Horner's rule,
// then eight squarings.
func newBigExp() func(x float64) *big.Float {
	const prec, degree = 128, 14
	coef := make([]*big.Float, degree+1) // 1/k!
	fact := new(big.Float).SetPrec(prec).SetInt64(1)
	for k := range coef {
		if k > 0 {
			fact.Mul(fact, new(big.Float).SetPrec(prec).SetInt64(int64(k)))
		}
		coef[k] = new(big.Float).SetPrec(prec).Quo(new(big.Float).SetPrec(prec).SetInt64(1), fact)
	}
	r, s := new(big.Float).SetPrec(prec), new(big.Float).SetPrec(prec)
	return func(x float64) *big.Float {
		r.SetMantExp(r.SetFloat64(x), -8)
		s.Set(coef[degree])
		for k := degree - 1; k >= 0; k-- {
			s.Mul(s, r)
			s.Add(s, coef[k])
		}
		for i := 0; i < 8; i++ {
			s.Mul(s, s)
		}
		return s
	}
}

var sampleSink []float64

// BenchmarkSample is the flow's rate stage: 4,000 dies of one line.
func BenchmarkSample(b *testing.B) {
	c := NewProcess()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sampleSink = c.Sample(4000, int64(i)+7)
	}
}
