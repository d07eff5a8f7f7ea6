package loadgen

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/serve"
)

// TestLoadSmoke is the `make load-smoke` tier-1 gate: a seeded
// closed-loop run over the mixed corpus against an in-process gapd,
// capped at 5 s, asserting the report invariants end to end — every
// BENCH_loadgen_*.json committed to this repo is produced by the same
// code path this test locks down.
func TestLoadSmoke(t *testing.T) {
	pool := jobs.NewPool(jobs.Options{Workers: 8})
	srv := newGapd(t, serve.Options{Pool: pool})

	requests := 300
	if testing.Short() {
		requests = 60
	}
	plan := Plan{
		Seed: 42,
		Arrival: ArrivalSpec{
			Process: ProcClosed, Concurrency: 8,
			Requests: requests, DurationSec: 5,
		},
		Corpus: CorpusSpec{Family: "mixed", Size: 24},
	}
	rep, err := Run(context.Background(), plan, RunOptions{Target: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invariants: %v\n%s", err, rep.Table())
	}
	c := rep.Requests
	if c.Completed == 0 {
		t.Fatalf("no requests completed:\n%s", rep.Table())
	}
	if c.ServedBy["ram"] == 0 {
		t.Errorf("no RAM hits across a 24-spec corpus — dedup broken? served_by %v", c.ServedBy)
	}
	if len(rep.PerKind) == 0 || rep.PerKind["evaluate"] == nil {
		t.Errorf("mixed corpus produced no evaluate slice: %v", rep.PerKind)
	}

	// The report must survive its own canonical JSON round trip with
	// invariants intact (what a committed BENCH file promises).
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped report invariants: %v", err)
	}

	table := rep.Table()
	for _, want := range []string{"goodput", "p50", "kind", "phase"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}
