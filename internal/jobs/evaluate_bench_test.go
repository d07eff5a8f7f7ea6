package jobs_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
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
// workload. Besides ns/op it reports each flow stage's wall time per
// evaluation (<stage>-ms/eval, from a core stage observer) and their
// sum (stages-ms/eval).
func BenchmarkEvaluateCold(b *testing.B) {
	templates := coldTemplates(b)
	spent := map[string]time.Duration{}
	ctx := core.WithStageObserver(context.Background(), func(stage string, d time.Duration) {
		spent[stage] += d
	})
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
	b.StopTimer()
	evals := float64(b.N * len(templates))
	var sum time.Duration
	for _, stage := range []string{"synthesize", "presize", "floorplan", "pipeline", "postsize", "domino", "timing", "rate"} {
		sum += spent[stage]
		b.ReportMetric(msPer(spent[stage], evals), stage+"-ms/eval")
	}
	b.ReportMetric(msPer(sum, evals), "stages-ms/eval")
}

func msPer(d time.Duration, n float64) float64 { return float64(d) / float64(time.Millisecond) / n }
