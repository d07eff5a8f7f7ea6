// Storage-integrity chaos suite (`make chaos-scrub`): seeded bit-flips
// are injected into live segment files under a running 3-node cluster,
// and the self-healing pipeline — deterministic scrub, quarantine,
// read-repair from the replica set, recompute as last resort — must
// detect every injected fault, heal it exactly once, and never serve a
// corrupt byte: every answer stays byte-identical to the single-node
// serial reference for the fixed seed matrix {1, 7, 42}.
package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/cluster"
	"repro/internal/jobs"
)

// storeNodes boots n cluster nodes that each carry a disk tier and no
// RAM cache (CacheEntries -1), so every read actually crosses the
// store's verification path. Returns the nodes and each node's store
// directory for on-disk fault injection.
func storeNodes(t *testing.T, n int, seed int64, tweak func(*cluster.Options)) ([]*node, map[string]string) {
	t.Helper()
	dirs := map[string]string{}
	nodes := startClusterPools(t, n, func(id string) jobs.Options {
		dir := t.TempDir()
		st, err := cas.Open(cas.Options{Dir: dir, SegmentBytes: 1 << 20, ScrubSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		dirs[id] = dir
		return jobs.Options{Workers: 2, CacheEntries: -1, Store: st}
	}, tweak)
	return nodes, dirs
}

// corruptRecords flips one byte of each target record's on-disk bytes
// inside dir: targets maps content address -> rel, the flip position
// past the record start. Offsets are located in a single clean scan per
// segment file before any byte is touched (an already-flipped record
// would stop a decode walk cold). GCS1 layout for picking rel: magic
// 0:4, content address 4:36, SHA-256 digest 36:68, body length + header
// CRC 68:76, body from 76, body CRC trailing — so rel 5 rots the
// address, rel 40 the digest, rel 78 the body.
func corruptRecords(t *testing.T, dir string, targets map[string]int64) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.cas"))
	if err != nil {
		t.Fatal(err)
	}
	hit := map[string]bool{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		type flip struct {
			pos int64
			b   byte
		}
		var flips []flip
		for off := 0; off < len(data); {
			rec, n, derr := cas.DecodeRecord(data[off:])
			if derr != nil {
				break // torn tail or end of records
			}
			if rel, ok := targets[rec.Addr]; ok && !hit[rec.Addr] {
				if rel >= int64(n) {
					t.Fatalf("rel %d past record size %d", rel, n)
				}
				flips = append(flips, flip{int64(off) + rel, data[int64(off)+rel] ^ 0x40})
				hit[rec.Addr] = true
			}
			off += n
		}
		if len(flips) == 0 {
			continue
		}
		f, err := os.OpenFile(p, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, fl := range flips {
			if _, err := f.WriteAt([]byte{fl.b}, fl.pos); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for addr := range targets {
		if !hit[addr] {
			t.Fatalf("record %s not found under %s", addr[:12], dir)
		}
	}
}

// corruptRecord is corruptRecords for a single address.
func corruptRecord(t *testing.T, dir, addr string, rel int64) {
	t.Helper()
	corruptRecords(t, dir, map[string]int64{addr: rel})
}

// scrubPasses drives the store through `passes` complete scrub passes
// (the first-ever pass starts at the seeded origin and covers a suffix;
// the second is always a full sweep, so two passes = full coverage).
func scrubPasses(t *testing.T, st *cas.Store, passes int) {
	t.Helper()
	done := 0
	for i := 0; i < 10_000 && done < passes; i++ {
		if st.Stats().Records == 0 {
			return // nothing live left to walk (empty, or all condemned)
		}
		if pr := st.ScrubStep(64); pr.PassComplete {
			done++
		}
	}
	if done < passes {
		t.Fatalf("scrub completed %d of %d passes", done, passes)
	}
}

// waitStoredOn polls until the result is durably held by at least want
// nodes — how a test observes the asynchronous completion-time
// replica push without racing it.
func waitStoredOn(t *testing.T, nodes []*node, id string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		n := 0
		for _, nd := range nodes {
			if nd.pool.HasStored(id) {
				n++
			}
		}
		if n >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("result %s never reached %d nodes", id[:12], want)
}

// corruptionTargets are the byte offsets the injection rotates through:
// a body byte (body CRC catches it), an address byte and a digest byte
// (header CRC catches both). Offsets per the GCS1 layout in
// corruptRecord's comment.
var corruptionTargets = []int64{78, 5, 40}

// TestChaosScrubReadRepair is the storage-integrity acceptance drill:
// a 3-node cluster (replication factor 2, RAM caches off) computes the
// full spec batch, then every result's owner copy is bit-flipped on
// disk — body, address, and digest bytes, chosen by the seeded
// schedule. Two full scrub passes per store must condemn exactly the
// injected records; re-submission must heal each one by fetching the
// replica's verified copy (zero recomputes) and serve bytes identical
// to the serial reference; and the counter chain must match the fault
// count exactly: scrub_corrupt == cas_corrupt_reads ==
// cluster_read_repaired == scrub_repaired == injected, with nothing
// left in quarantine.
func TestChaosScrubReadRepair(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			specs := clusterBatch(seed)
			ref := serialReference(t, specs)
			nodes, dirs := storeNodes(t, 3, seed, func(o *cluster.Options) {
				o.Replicas = 2
			})

			// Phase 1: compute everything through the true owners and wait
			// for the completion-time push to land on each replica.
			owners := map[string]*node{}
			for _, spec := range specs {
				owner := byID(t, nodes, nodes[0].clu.Ring().Owner(spec.Hash()))
				res := submit(t, owner, spec)
				if got, want := normalizedJSON(t, res), ref[res.ID]; !bytes.Equal(got, want) {
					t.Fatalf("%s: pre-fault result differs from serial reference", spec.Kind)
				}
				owners[res.ID] = owner
				waitStoredOn(t, nodes, res.ID, 2)
			}

			started := map[string]int64{}
			for _, nd := range nodes {
				started[nd.id] = nd.pool.Metrics().JobsStarted.Load()
			}

			// Phase 2: rot the owner's copy of every result — the byte
			// chosen by the seeded schedule rotates across body, address,
			// and digest targets.
			rng := rand.New(rand.NewSource(seed))
			injected := 0
			perDir := map[string]map[string]int64{}
			for _, spec := range specs { // spec order: the schedule is seed-deterministic
				id := spec.Hash()
				owner := owners[id]
				if perDir[owner.id] == nil {
					perDir[owner.id] = map[string]int64{}
				}
				perDir[owner.id][id] = corruptionTargets[rng.Intn(len(corruptionTargets))]
				injected++
			}
			for nid, targets := range perDir {
				corruptRecords(t, dirs[nid], targets)
			}

			// Phase 3: two full scrub passes per store. Replica copies are
			// clean; only the injected records may be condemned.
			for _, nd := range nodes {
				scrubPasses(t, nd.pool.Store(), 2)
			}
			var scrubCorrupt, quarantined int64
			for _, nd := range nodes {
				st := nd.pool.Store().Stats()
				scrubCorrupt += st.ScrubCorrupt
				quarantined += int64(st.Quarantined)
			}
			if scrubCorrupt != int64(injected) {
				t.Errorf("scrub_corrupt = %d, want %d (one per injected fault)", scrubCorrupt, injected)
			}
			if quarantined != int64(injected) {
				t.Errorf("quarantined = %d, want %d before repair", quarantined, injected)
			}

			// Phase 4: re-submission through the owner must repair from the
			// replica — byte-identical answers, zero recomputes.
			for _, spec := range specs {
				res, by := submitServed(t, owners[spec.Hash()], spec)
				if got, want := normalizedJSON(t, res), ref[res.ID]; !bytes.Equal(got, want) {
					t.Errorf("%s: post-repair result differs from serial reference\n got: %s\nwant: %s",
						spec.Kind, got, want)
				}
				if by != jobs.ServedRepair {
					t.Errorf("%s: repaired result served by %q, want repair", spec.Kind, by)
				}
			}

			var corruptReads, readRepaired, scrubRepaired, leftover int64
			for _, nd := range nodes {
				if d := nd.pool.Metrics().JobsStarted.Load() - started[nd.id]; d != 0 {
					t.Errorf("node %s recomputed %d jobs; read-repair must cost zero", nd.id, d)
				}
				corruptReads += nd.pool.Metrics().CASCorruptReads.Load()
				readRepaired += nd.clu.Metrics().Counters()["cluster_read_repaired"]
				st := nd.pool.Store().Stats()
				scrubRepaired += st.ScrubRepaired
				leftover += int64(st.Quarantined)
				if rep := nd.pool.Store().ScrubReport(); int64(len(rep)) != int64(st.Quarantined) {
					t.Errorf("node %s: scrub report %d entries, stats say %d", nd.id, len(rep), st.Quarantined)
				}
			}
			if corruptReads != int64(injected) {
				t.Errorf("cas_corrupt_reads = %d, want %d", corruptReads, injected)
			}
			if readRepaired != int64(injected) {
				t.Errorf("cluster_read_repaired = %d, want %d", readRepaired, injected)
			}
			if scrubRepaired != int64(injected) {
				t.Errorf("scrub_repaired = %d, want %d", scrubRepaired, injected)
			}
			if leftover != 0 {
				t.Errorf("quarantined = %d after repair, want 0", leftover)
			}
		})
	}
}

// TestReadRepairPrefersReplica pins the repair ordering contract for
// the healthy-replica case: corrupt local copy + clean replica =
// read-repair, not recompute.
func TestReadRepairPrefersReplica(t *testing.T) {
	spec := clusterBatch(7)[0]
	nodes, dirs := storeNodes(t, 2, 7, func(o *cluster.Options) { o.Replicas = 2 })
	owner := byID(t, nodes, nodes[0].clu.Ring().Owner(spec.Hash()))

	res := submit(t, owner, spec)
	waitStoredOn(t, nodes, res.ID, 2)
	want := normalizedJSON(t, res)
	started := owner.pool.Metrics().JobsStarted.Load()

	corruptRecord(t, dirs[owner.id], res.ID, corruptionTargets[0])
	scrubPasses(t, owner.pool.Store(), 2)
	if !owner.pool.Store().Quarantined(res.ID) {
		t.Fatal("scrub did not quarantine the corrupted record")
	}

	res2 := submit(t, owner, spec)
	if !bytes.Equal(normalizedJSON(t, res2), want) {
		t.Error("repaired result differs from the original")
	}
	if d := owner.pool.Metrics().JobsStarted.Load() - started; d != 0 {
		t.Errorf("recomputed %d jobs with a healthy replica available", d)
	}
	if got := owner.clu.Metrics().Counters()["cluster_read_repaired"]; got != 1 {
		t.Errorf("cluster_read_repaired = %d, want 1", got)
	}
	if owner.pool.Store().Quarantined(res.ID) {
		t.Error("quarantine not cleared by the repairing re-Put")
	}
	if got := owner.pool.Store().Stats().ScrubRepaired; got != 1 {
		t.Errorf("scrub_repaired = %d, want 1", got)
	}
}

// TestReadRepairNoReplicaRecomputesOnce pins the last-resort contract:
// with no replica to fetch from (replication factor 1), a quarantined
// record costs exactly one recompute, which itself heals the store.
func TestReadRepairNoReplicaRecomputesOnce(t *testing.T) {
	spec := clusterBatch(1)[0]
	nodes, dirs := storeNodes(t, 1, 1, nil) // Replicas defaults to 1: off
	nd := nodes[0]

	res := submit(t, nd, spec)
	want := normalizedJSON(t, res)
	started := nd.pool.Metrics().JobsStarted.Load()

	corruptRecord(t, dirs[nd.id], res.ID, corruptionTargets[1])
	scrubPasses(t, nd.pool.Store(), 2)
	if !nd.pool.Store().Quarantined(res.ID) {
		t.Fatal("scrub did not quarantine the corrupted record")
	}

	res2 := submit(t, nd, spec)
	if !bytes.Equal(normalizedJSON(t, res2), want) {
		t.Error("recomputed result differs from the original")
	}
	if d := nd.pool.Metrics().JobsStarted.Load() - started; d != 1 {
		t.Errorf("JobsStarted delta = %d, want exactly 1 recompute", d)
	}
	if nd.pool.Store().Quarantined(res.ID) {
		t.Error("recompute's re-Put did not clear the quarantine")
	}

	// The healed store serves the third submission without computing.
	if _, by := submitServed(t, nd, spec); by != jobs.ServedCAS {
		t.Errorf("healed record served by %q, want a cas hit", by)
	}
	if d := nd.pool.Metrics().JobsStarted.Load() - started; d != 1 {
		t.Errorf("JobsStarted delta = %d after heal, want still 1", d)
	}
}

// TestReadRepairBothCorrupt pins the worst case: every copy of a
// result rots. The owner recomputes exactly once (a corrupt replica
// 404s rather than serve rot), and the next anti-entropy sweep re-pushes
// the recomputed result so both stores end healed.
func TestReadRepairBothCorrupt(t *testing.T) {
	spec := clusterBatch(42)[0]
	nodes, dirs := storeNodes(t, 2, 42, func(o *cluster.Options) { o.Replicas = 2 })
	owner := byID(t, nodes, nodes[0].clu.Ring().Owner(spec.Hash()))
	replica := otherThan(nodes, owner)

	res := submit(t, owner, spec)
	waitStoredOn(t, nodes, res.ID, 2)
	want := normalizedJSON(t, res)
	started := owner.pool.Metrics().JobsStarted.Load()

	corruptRecord(t, dirs[owner.id], res.ID, corruptionTargets[0])
	corruptRecord(t, dirs[replica.id], res.ID, corruptionTargets[2])
	scrubPasses(t, owner.pool.Store(), 2)
	scrubPasses(t, replica.pool.Store(), 2)

	res2 := submit(t, owner, spec)
	if !bytes.Equal(normalizedJSON(t, res2), want) {
		t.Error("recovered result differs from the original")
	}
	if d := owner.pool.Metrics().JobsStarted.Load() - started; d != 1 {
		t.Errorf("JobsStarted delta = %d, want exactly 1 (replica rot must not double-compute)", d)
	}
	if owner.pool.Store().Quarantined(res.ID) {
		t.Error("owner quarantine not cleared by the recompute")
	}

	// The replica's condemned copy heals on the next repair round: the
	// recompute's own completion-time push may land first, and the
	// anti-entropy sweep is the backstop — drive sweeps until the
	// verified result is back and the quarantine is gone.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if replica.pool.HasStored(res.ID) && !replica.pool.Store().Quarantined(res.ID) {
			break
		}
		owner.clu.AntiEntropyNow(context.Background())
		time.Sleep(5 * time.Millisecond)
	}
	if replica.pool.Store().Quarantined(res.ID) {
		t.Error("replica quarantine never cleared by repair push")
	}
	if !replica.pool.HasStored(res.ID) {
		t.Error("replica does not hold the repaired result")
	}
}
