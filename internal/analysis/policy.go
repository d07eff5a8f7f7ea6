package analysis

// This file is the repo's lint policy: which packages each analyzer
// guards. cmd/gaplint, the fixture-independent tests, and
// BenchmarkGaplint all share it so the lists cannot drift.

// CorePackages are the deterministic evaluation packages (relative to
// internal/): everything a factor-ladder rung, chaos replay, or replica
// digest re-executes must be a pure function of its inputs.
var CorePackages = []string{
	"core", "wire", "sta", "sizing", "place", "pipeline", "dynlogic",
	"procvar", "power", "clock", "cell", "circuits", "netlist", "synth",
	"units", "chips",
}

// ServicePackages are the boundary packages (relative to internal/)
// whose exported errors feed jobs.Classify and the HTTP status mapping.
var ServicePackages = []string{"jobs", "serve", "cluster"}

// MeasurementPackages extend the determinism guarantee to the load
// generator: schedules, corpora, and item picks must be pure functions
// of the plan seed (seeded rand.New only), so the same gapload seed
// replays the identical experiment. The single sanctioned wall-clock
// seam — latency measurement — is annotated in loadgen/clock.go.
var MeasurementPackages = []string{"loadgen"}

// StoragePackages extend the determinism guarantee to the result
// store: segment layout, record encoding, admission estimates,
// compaction order, and the integrity scrubber's cursor walk must be
// pure functions of the operation sequence, so two stores that saw the
// same Puts compact to byte-identical segments, a restart rebuilds the
// identical index, and a scrub pass condemns the same records on
// replay. The scrubber's only randomness is its seeded first-pass
// origin (rand.New(rand.NewSource(seed)), which the determinism
// analyzer permits); its pacing lives in cmd/gapd, so the single
// sanctioned wall-clock seam — the opened_at display timestamp on
// Stats — remains the one annotated in cas/clock.go.
var StoragePackages = []string{"cas"}

// ConcurrencyPackages are the deeply concurrent service packages the
// concurrency-hygiene analyzers guard: every goroutine must have a
// provable shutdown path (goroutinelifecycle), every majority-guarded
// struct field must be guarded at all sites (lockdiscipline), and the
// channel leak/panic patterns are barred (chanhygiene). `go test
// -race` proves only the interleavings the tests execute; these
// analyzers prove the invariants on all code, every run.
var ConcurrencyPackages = []string{
	"jobs", "cluster", "gossip", "cas", "serve", "loadgen",
}

// MembershipPackages extend the determinism guarantee to the gossip
// membership protocol: probe order, ping-req proxy picks, and state
// transitions are driven by rounds, not wall time, and must be pure
// functions of the seed and the observed events. The single sanctioned
// wall-clock seam — the display timestamp on view snapshots — is
// annotated in gossip/clock.go. The ctxflow analyzer covers the
// package too, by being module-wide.
var MembershipPackages = []string{"gossip"}

// RepoAnalyzers builds the full analyzer set for a module rooted at
// modPath ("repro" in this repo).
func RepoAnalyzers(modPath string) []Analyzer {
	prefix := func(names []string) []string {
		out := make([]string, len(names))
		for i, n := range names {
			out[i] = modPath + "/internal/" + n
		}
		return out
	}
	return []Analyzer{
		NewDeterminism(append(append(append(prefix(CorePackages),
			prefix(MeasurementPackages)...), prefix(MembershipPackages)...),
			prefix(StoragePackages)...)...),
		NewErrTaxonomy(prefix(ServicePackages)...),
		NewCtxFlow(),
		NewMetricName(),
		NewLockDiscipline(prefix(ConcurrencyPackages)...),
		NewGoroutineLifecycle(prefix(ConcurrencyPackages)...),
		NewChanHygiene(prefix(ConcurrencyPackages)...),
	}
}
