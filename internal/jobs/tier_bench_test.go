package jobs

import (
	"context"
	"testing"

	"repro/internal/cas"
)

// benchSpec is one cheap evaluate, canonicalized once.
func benchSpec(b *testing.B, seed int64) Spec {
	b.Helper()
	c, err := Spec{
		Kind:        KindEvaluate,
		Design:      DesignSpec{Name: "datapath", Width: 8, Depth: 2},
		Methodology: MethSpec{Base: "typical"},
		Seed:        seed,
	}.Canon()
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkTierHitRAM measures a full Pool.Do round trip answered from
// the RAM cache — canonicalization, hash, sketch touch, LRU hit,
// no copy or encode. The baseline the disk tier is compared against.
func BenchmarkTierHitRAM(b *testing.B) {
	s, err := cas.Open(cas.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	p := NewPool(Options{Workers: 1, Store: s})
	spec := benchSpec(b, 1)
	if _, err := p.Do(context.Background(), spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := p.Serve(context.Background(), spec)
		if err != nil || a.By != ServedRAM {
			b.Fatalf("not a cache hit: %v", err)
		}
	}
}

// BenchmarkTierHitCAS measures the same round trip answered from the
// disk tier: RAM miss, segment ReadAt, CRC + SHA-256 verification,
// id-only decode of the stored body. The cache is disabled so every
// iteration exercises the store path — the number to hold against
// BenchmarkTierHitRAM when deciding how much RAM the cache deserves.
func BenchmarkTierHitCAS(b *testing.B) {
	s, err := cas.Open(cas.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	warm := NewPool(Options{Workers: 1, Store: s})
	spec := benchSpec(b, 1)
	if _, err := warm.Do(context.Background(), spec); err != nil {
		b.Fatal(err)
	}
	// CacheEntries < 0 disables the RAM tier: every Do is a CAS hit.
	p := NewPool(Options{Workers: 1, CacheEntries: -1, Store: s})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := p.Serve(context.Background(), spec)
		if err != nil || a.By != ServedCAS {
			b.Fatalf("not a store hit: %v", err)
		}
	}
}
