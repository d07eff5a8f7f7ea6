package jobs_test

import (
	"context"
	"testing"

	"repro/internal/jobs"
	"repro/internal/loadgen"
)

// coldTemplates returns the 28 templates of gapbench's cold-durable
// stream: gapload's adders and muxpaths corpora at corpus seed 42.
func coldTemplates(b *testing.B) []jobs.Spec {
	b.Helper()
	var out []jobs.Spec
	for _, fam := range []string{"adders", "muxpaths"} {
		c, err := loadgen.BuildCorpus(loadgen.CorpusSpec{Family: fam, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		for _, it := range c.Items {
			out = append(out, it.Spec)
		}
	}
	return out
}

// BenchmarkEvaluateCold measures the engine without the service: each op
// evaluates all 28 cold templates with jobs.Run, every op on a fresh
// evaluation seed, so nothing is cached and every stage of the flow
// runs. It is the in-process counterpart of gapbench's cold-durable
// workload.
func BenchmarkEvaluateCold(b *testing.B) {
	templates := coldTemplates(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range templates {
			s.Seed = int64(i) + 1
			if _, err := jobs.Run(ctx, s, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}
