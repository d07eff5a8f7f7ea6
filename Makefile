# Developer entry points. `make tier1` is the gate every change must
# pass: formatting (gofmt -s), vet, gaplint, a full build, the test
# suite under the race detector (the concurrency proof for the gapd job
# engine), and the chaos suite (the failure proof: deterministic fault
# injection at every pool/stage seam, journal kill-and-restart recovery,
# overload shedding).
#
# `make lint` runs cmd/gaplint, the repo's own static-analysis pass
# (internal/analysis): determinism (no wall clock / global rand in the
# core evaluation packages), errtaxonomy (service-boundary errors wrap
# the typed taxonomy), ctxflow (incoming contexts propagate; no
# context.Background in ctx-receiving functions), metricname
# (registered metric names unique and snake_case module-wide),
# lockdiscipline (a field guarded by a mutex at a majority of access
# sites is guarded at every site; no bare-Lock early returns),
# goroutinelifecycle (every goroutine in the service packages has a
# provable shutdown path), and chanhygiene (no timer-per-iteration
# retry loops, closes of handed-in channels, double-close shapes, or
# receiverless sends). The driver fans (analyzer, package) units over a
# bounded worker pool; output is byte-identical at any worker count.
# Deliberate exceptions are annotated in the source as
#
#     //gaplint:allow <analyzer> — <reason>
#
# on the offending line or the line directly above it. The reason is
# mandatory, and an allow that no longer suppresses anything is itself
# a finding — stale annotations cannot accumulate. `make lint-audit`
# lists every allow in the module with its reason for review.

GO ?= go

.PHONY: tier1 fmt vet lint lint-audit build test race bench bench-engine chaos chaos-net chaos-rolling chaos-cas chaos-scrub soak-cas fuzz gapd load-smoke

tier1: fmt vet lint build race load-smoke chaos chaos-net chaos-rolling chaos-cas chaos-scrub

fmt:
	@out=$$(gofmt -s -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; \
	fi

lint:
	$(GO) run ./cmd/gaplint ./...

# Audit mode: list every //gaplint:allow directive in the module with
# the reason its author gave — one reviewable inventory of deliberate
# exceptions. Not a gate; reasonless allows already fail `make lint`.
lint-audit:
	$(GO) run ./cmd/gaplint -list-allows ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The engine benchmarks behind BENCH_engine.json: the 28 cold-stream
# templates evaluated in process on fresh seeds (BenchmarkEvaluateCold,
# with per-stage ms/eval), the rate stage's 4,000-die Monte Carlo
# (BenchmarkSample), and one cold evaluate through the HTTP handler with
# its CAS put (BenchmarkRequestPath/cold-evaluate). Not a gate.
bench-engine:
	$(GO) test -run '^$$' -bench 'BenchmarkEvaluateCold' -benchmem -count=5 ./internal/jobs/
	$(GO) test -run '^$$' -bench 'BenchmarkSample' -benchmem -count=5 ./internal/procvar/
	$(GO) test -run '^$$' -bench 'BenchmarkRequestPath/cold-evaluate' -benchmem -count=5 ./internal/serve/

# The chaos suite under the race detector: every fault schedule is a
# pure function of the fixed seed matrix {1, 7, 42} baked into the
# tests, so failures reproduce exactly. -count=1 defeats test caching —
# a chaos proof from a previous build proves nothing about this one.
# internal/cluster contributes the sharding chaos tests: a 3-node
# in-process cluster with the owner killed mid-run (fallback) or running
# slow (hedged), results byte-identical to the single-node reference.
chaos:
	$(GO) test -race -count=1 \
		-run 'TestChaos|TestKillAndRestart|TestWatchdog|TestOverload|TestPerClient|TestHealthzDegrades' \
		./internal/jobs/ ./internal/serve/ ./internal/cluster/

# The network chaos suite under the race detector: deterministic
# netfault injection on every peer link (partitions, corruption, resets)
# plus the partition-tolerance machinery it exercises — result
# replication, digest rejection, anti-entropy repair, hedge-loser
# cancellation, and deadline-driven hedge suppression.
chaos-net:
	$(GO) test -race -count=1 ./internal/netfault/
	$(GO) test -race -count=1 \
		-run 'TestChaosNet|TestHedgeLoser|TestDeadline|TestResponseDigest|TestResults' \
		./internal/cluster/ ./internal/serve/

# The dynamic-membership chaos suite under the race detector: a 5-node
# gossip cluster survives a rolling restart (every node drained, killed,
# rejoined cold) losing zero completed results with byte-identical
# answers and zero recomputes, plus the membership edge cases — join
# during a partition, suspect refutation by incarnation bump, a
# two-sided dead split healed by re-join, stale views rejected on
# rejoin, and the drain gate's no-new-admissions guarantee.
chaos-rolling:
	$(GO) test -race -count=1 ./internal/gossip/
	$(GO) test -race -count=1 \
		-run 'TestChaosRollingRestart|TestGossip' \
		./internal/cluster/

# The result-store chaos suite under the race detector: the tiered CAS
# (internal/cas) unit and crash tests, plus the pool-level drills — a
# cache-cold restart serving a corpus 4x the RAM cache with exactly zero
# recomputes and >90% combined-tier hits, a kill mid-segment-write
# recovered by torn-tail truncation, and the crash window between the
# CAS fsync and the journal's stored pointer. Seeds {1, 7, 42}.
chaos-cas:
	$(GO) test -race -count=1 ./internal/cas/
	$(GO) test -race -count=1 -run 'TestChaosCAS' ./internal/jobs/

# The storage-integrity chaos suite under the race detector: seeded
# bit-flips (body, address, and digest bytes) injected into live segment
# files under a running 3-node cluster. The scrubber must condemn every
# injected fault, the read path must repair each from the replica set
# (or recompute exactly once when no replica holds it), every answer
# stays byte-identical to the serial reference, and the counter chain —
# scrub_corrupt, cas_corrupt_reads, cluster_read_repaired,
# scrub_repaired — matches the injected fault count exactly. /healthz
# quarantine degradation rides along from internal/serve.
chaos-scrub:
	$(GO) test -race -count=1 \
		-run 'TestChaosScrub|TestReadRepair|TestHealthzDegradesOnUnrepairableQuarantine' \
		./internal/cluster/ ./internal/serve/

# The storage endurance drill (not part of tier1): a million-record
# churn of puts, supersedes, budget evictions, and compactions with the
# scrubber running against it, asserting index-vs-disk consistency
# (including across a reopen), a bounded dead-byte fraction, and that
# the scrubber never condemns healthy data. GAP_SOAK_RECORDS scales it.
soak-cas:
	GAP_SOAK=1 $(GO) test -count=1 -timeout 30m -run 'TestSoakCAS' -v ./internal/cas/

# Short fuzz passes over the hardened trust boundaries: the
# structural-Verilog reader, job-spec canonicalization, the peer
# response decoder (every byte a peer sends crosses it), the CAS
# segment-record decoder (every byte the boot scan and compaction read
# crosses it), the scrubber's per-record verdict (which must detect
# every single-bit flip of a valid record and never panic on garbage),
# and journal replay (every byte of a journal left by a crash crosses it
# at boot; each job it names must land in exactly one class).
# CI-sized; raise -fuzztime for a real hunt. FuzzReadVerilog bounds
# input minimization at 5s: its seeds are several KB of Verilog, and
# minimizing a new input grown from one can take the default 60s, more
# than the whole 30s budget, which left the target near zero execs/s.
fuzz:
	$(GO) test ./internal/netlist/ -run '^$$' -fuzz FuzzReadVerilog -fuzztime 30s -fuzzminimizetime 5s
	$(GO) test ./internal/jobs/ -run '^$$' -fuzz FuzzJobSpecCanonical -fuzztime 30s
	$(GO) test ./internal/jobs/ -run '^$$' -fuzz FuzzJournalReplay -fuzztime 30s
	$(GO) test ./internal/cluster/ -run '^$$' -fuzz FuzzPeerResponseDecode -fuzztime 30s
	$(GO) test ./internal/cas/ -run '^$$' -fuzz FuzzSegmentDecode -fuzztime 30s
	$(GO) test ./internal/cas/ -run '^$$' -fuzz FuzzScrubRecord -fuzztime 30s

# The load-generator smoke gate: a seeded closed-loop gapload run over
# the mixed corpus against an in-process gapd (capped at 5 s), asserting
# the SLO-report invariants (count partitions, quantile monotonicity,
# cache accounting). Every committed BENCH_loadgen_*.json flows through
# the code path this locks down. -count=1 because a cached result proves
# nothing about this build.
load-smoke:
	$(GO) test -race -count=1 -run 'TestLoadSmoke' ./internal/loadgen/

gapd:
	$(GO) run ./cmd/gapd
