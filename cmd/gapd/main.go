// Command gapd serves the evaluation engine over HTTP: POST a job spec
// to /v1/evaluate, /v1/ladder, or /v1/sweep and get the flow's result as
// JSON, with identical submissions answered from a content-addressed
// cache. See internal/serve for the route table and internal/jobs for
// the spec schema.
//
// Usage:
//
//	gapd [-addr :8080] [-workers N] [-parallel N] [-cache N] [-timeout 2m]
//	     [-journal DIR] [-store-dir DIR] [-store-segment-bytes N]
//	     [-store-max-bytes N] [-scrub-interval 1m] [-scrub-rate N]
//	     [-scrub-seed N] [-drain-timeout 30s] [-max-queue N]
//	     [-max-per-client N] [-node-id ID -peers ID=URL,...]
//	     [-advertise URL] [-hedge-after 50ms] [-replicas N]
//	     [-antientropy-interval 30s] [-gossip-interval 250ms]
//	     [-gossip-seed N] [-version]
//
// With -journal, DIR holds an fsynced JSONL intent log: every accepted
// job is written ahead, and every finished one is closed by a slim
// "stored" pointer or a terminal "fail" record. The journal never holds
// a result. On boot it is replayed before the server starts listening:
// jobs interrupted by a crash are re-executed, and stored pointers
// re-warm the cache from the -store-dir store. Without a store, finished
// results are not warmed and recompute on demand, byte-identical.
// SIGHUP compacts the journal on demand. The server drains in-flight
// jobs and exits cleanly on SIGINT/SIGTERM, syncing the journal and
// logging the count of jobs still in flight when the drain deadline
// expires.
//
// With -store-dir, completed results persist to a content-addressed
// segment store (internal/cas), the only place a result is durable: the
// RAM cache becomes a promotion tier over the disk tier, cache misses
// consult the store before recomputing, and a warm restart rebuilds the
// full result corpus by scanning the segment index — no recompute,
// regardless of cache size. -store-segment-bytes sets the rolling-segment size; -store-max-bytes
// budgets the store (compaction evicts the coldest records past it;
// 0 = unlimited).
//
// The store is continuously scrubbed: every -scrub-interval a background
// pass verifies -scrub-rate records against their CRCs and SHA-256
// digests, condemns any record that fails (it is quarantined, never
// served, and its segment is compacted), and the read path repairs
// condemned records from the replica set before recomputing. -scrub-seed
// varies the deterministic scan origin across nodes so a fleet does not
// scrub in lockstep; -scrub-interval 0 disables scrubbing.
//
// Clustering: with -node-id and -peers (comma-separated id=url pairs),
// N gapd processes become one sharded service. The peer list seeds the
// node's membership view — every listed node starts alive, so the
// cluster routes at once — and from then on membership is SWIM-style
// gossip over POST /v1/gossip: probe rounds every -gossip-interval
// (target order seeded by -gossip-seed), indirect ping-req probes, and
// incarnation-numbered alive/suspect/dead states. The node advertises
// itself at its own -peers URL, or at -advertise when the list omits it
// (a node joining an existing cluster lists only a few seeds; the first
// node of a new one may list none). Each spec has one owner by
// rendezvous hashing over its content address; requests are forwarded
// to their owners (hedged past -hedge-after), and a suspect or dead
// owner's slice is computed by the next node in order — see
// internal/cluster. Completed results are replicated to the first
// -replicas nodes in rendezvous order and repaired by a background
// anti-entropy sweep every -antientropy-interval, so a partitioned
// owner's finished work stays servable. Ownership re-ranks live as nodes
// join and leave, and completed results migrate to their new owners
// instead of being recomputed. On SIGTERM the node drains first: it
// announces the drain (new work flows to the next rendezvous rank),
// finishes in-flight jobs, hands every held result off, and only then
// leaves — a rolling restart loses nothing. POST /v1/drain triggers the
// same sequence remotely. Setting GAPD_NETFAULT to a netfault plan (e.g.
// "seed=7,partition=0.05,corrupt=0.01") injects deterministic network
// faults into every peer-facing request — the chaos drill for a real
// multi-process cluster.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"net/url"

	"repro/internal/cas"
	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/netfault"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent jobs (0 = GOMAXPROCS)")
	parallel := flag.Int("parallel", 0, "flow evaluations per ladder/sweep job (0 = workers)")
	cache := flag.Int("cache", 0, "result-cache entries (0 = 512, negative disables)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-job wall-clock limit")
	reqTimeout := flag.Duration("request-timeout", 5*time.Minute, "per-request wait limit")
	maxBody := flag.Int64("max-body", 1<<20, "request body limit in bytes")
	journalDir := flag.String("journal", "", "crash-safe job intent log directory: interrupted jobs re-run at boot (empty disables)")
	storeDir := flag.String("store-dir", "", "content-addressed result store directory: disk tier under the RAM cache (empty disables)")
	storeSegBytes := flag.Int64("store-segment-bytes", 0, "store rolling-segment size in bytes (0 = 64 MiB)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "store live-byte budget; compaction evicts the coldest records past it (0 = unlimited)")
	scrubInterval := flag.Duration("scrub-interval", time.Minute, "spacing of background store-integrity scrub steps (0 disables)")
	scrubRate := flag.Int("scrub-rate", 256, "records verified per scrub step")
	scrubSeed := flag.Int64("scrub-seed", 1, "seed for the scrubber's deterministic scan origin")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "shutdown drain limit for in-flight jobs")
	maxQueue := flag.Int("max-queue", 0, "admission queue depth beyond workers before shedding 429s (0 = 4x workers, negative disables)")
	maxPerClient := flag.Int("max-per-client", 0, "concurrent submissions per client (0 = 2x workers, negative disables)")
	nodeID := flag.String("node-id", "", "this node's cluster id (required with -peers or -advertise)")
	peersFlag := flag.String("peers", "", "cluster seed list as comma-separated id=url pairs, this node included or not (empty = single node)")
	flag.Bool("gossip", false, "accepted and ignored: every clustered node gossips")
	advertise := flag.String("advertise", "", "this node's externally reachable base URL (default: its own -peers URL; required when -peers omits it)")
	gossipInterval := flag.Duration("gossip-interval", 250*time.Millisecond, "spacing of gossip protocol rounds")
	gossipSeed := flag.Int64("gossip-seed", 1, "seed for the deterministic probe/ping-req target selection")
	hedgeAfter := flag.Duration("hedge-after", 50*time.Millisecond, "latency threshold before a forwarded request is hedged to the next node in rendezvous order (negative disables)")
	replicas := flag.Int("replicas", 2, "replication factor: completed results are pushed to the first N nodes in rendezvous order (1 disables)")
	aeInterval := flag.Duration("antientropy-interval", 30*time.Second, "spacing of background replica-repair sweeps (0 disables)")
	showVersion := flag.Bool("version", false, "print build info and exit")
	flag.Parse()

	if *showVersion {
		v := serve.Version()
		fmt.Printf("gapd %s (%s, %s)", v.Version, v.Module, v.GoVersion)
		if v.Revision != "" {
			dirty := ""
			if v.Modified {
				dirty = "+dirty"
			}
			fmt.Printf(" rev %s%s", v.Revision, dirty)
		}
		fmt.Println()
		return
	}

	var journal *jobs.Journal
	if *journalDir != "" {
		j, err := jobs.OpenJournal(*journalDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gapd: %v\n", err)
			os.Exit(1)
		}
		journal = j
		defer journal.Close()
	}

	// Open the disk tier before the pool: boot is an index rebuild (a
	// header scan over the segment files), after which every result the
	// store holds is servable without recompute — the warm-restart path.
	var store *cas.Store
	if *storeDir != "" {
		s, err := cas.Open(cas.Options{
			Dir:          *storeDir,
			SegmentBytes: *storeSegBytes,
			MaxBytes:     *storeMaxBytes,
			ScrubSeed:    *scrubSeed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "gapd: %v\n", err)
			os.Exit(1)
		}
		store = s
		defer store.Close()
		st := store.Stats()
		log.Printf("gapd: result store: %d records in %d segments (%d bytes live, %d torn tails truncated) at %s",
			st.Records, st.Segments, st.LiveBytes, st.TornTails, *storeDir)
	}

	pool := jobs.NewPool(jobs.Options{
		Workers:      *workers,
		Parallelism:  *parallel,
		CacheEntries: *cache,
		JobTimeout:   *timeout,
		Journal:      journal,
		Store:        store,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Background integrity scrub: pace lives here (a plain ticker), while
	// the scrubber itself is purely operation-driven — ScrubStep(n)
	// verifies the next n records and the store handles condemnation,
	// quarantine, and compaction. Log lines appear only when a pass
	// completes with damage, so a healthy store scrubs silently.
	if store != nil && *scrubInterval > 0 {
		go func() {
			tick := time.NewTicker(*scrubInterval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					pr := store.ScrubStep(*scrubRate)
					if pr.Corrupt > 0 {
						log.Printf("gapd: scrub condemned %d of %d records this step (quarantined for repair; segment compaction triggered)",
							pr.Corrupt, pr.Scanned)
					}
				}
			}
		}()
	}

	// Replay the journal before listening: stored results re-warm the
	// cache from the store, interrupted jobs re-execute, and the journal
	// compacts to the surviving state — so a kill-and-restart converges
	// to the same results the uninterrupted run would have served.
	if journal != nil {
		stats, err := jobs.RecoverFromJournal(ctx, pool, *journalDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gapd: journal recovery: %v\n", err)
			os.Exit(1)
		}
		if stats.WarmedStore+stats.Resubmitted+stats.SkippedTerminal+stats.ReplaysExhausted > 0 || stats.Truncated {
			log.Printf("gapd: journal replay: %d results re-warmed from the store, %d interrupted jobs re-run (%d failed again), %d terminal failures skipped, %d poison jobs failed terminally, truncated=%v",
				stats.WarmedStore, stats.Resubmitted, stats.FailedReplays,
				stats.SkippedTerminal, stats.ReplaysExhausted, stats.Truncated)
		}
	}

	// SIGHUP compacts the journal on demand: duplicate accepts and
	// terminal-failure history collapse while pending work survives.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if journal == nil {
				log.Printf("gapd: SIGHUP: no journal configured, nothing to compact")
				continue
			}
			st, err := journal.CompactNow()
			if err != nil {
				log.Printf("gapd: SIGHUP compaction failed: %v", err)
				continue
			}
			log.Printf("gapd: SIGHUP compaction: %d -> %d bytes (%d stored kept, %d pending kept, %d failed dropped)",
				st.BeforeBytes, st.AfterBytes, st.StoredKept, st.PendingKept, st.DroppedFailed)
		}
	}()

	var clu *cluster.Cluster
	if *peersFlag != "" || *advertise != "" {
		var peers []cluster.Peer
		if *peersFlag != "" {
			var err error
			peers, err = cluster.ParsePeers(*peersFlag)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gapd: %v\n", err)
				os.Exit(1)
			}
		}
		opts := cluster.Options{
			SelfID:              *nodeID,
			Peers:               peers,
			HedgeAfter:          *hedgeAfter,
			RequestTimeout:      *reqTimeout,
			Replicas:            *replicas,
			AntiEntropyInterval: *aeInterval,
			// The cluster's result set is the union of RAM and disk:
			// anti-entropy repair and drain handoff must cover results
			// the cache has evicted but the store still holds.
			Results: pool.StoredView(),
			Gossip: cluster.GossipOptions{
				SelfURL:  *advertise,
				Seed:     *gossipSeed,
				Interval: *gossipInterval,
			},
		}
		// GAPD_NETFAULT injects deterministic network faults into every
		// peer-facing request — chaos drills against a real multi-process
		// cluster without touching iptables. The value is a netfault plan
		// ("seed=7,partition=0.05,corrupt=0.01,..."); peer URLs resolve to
		// peer IDs so fault sites are keyed by logical link, not address.
		if planStr := os.Getenv("GAPD_NETFAULT"); planStr != "" {
			plan, err := netfault.ParsePlan(planStr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gapd: GAPD_NETFAULT: %v\n", err)
				os.Exit(1)
			}
			hosts := make(map[string]string, len(peers))
			for _, p := range peers {
				if u, err := url.Parse(p.URL); err == nil {
					hosts[u.Host] = p.ID
				}
			}
			inj := netfault.New(plan)
			opts.WrapTransport = func(rt http.RoundTripper) http.RoundTripper {
				return inj.Transport(*nodeID, netfault.HostResolver(hosts), rt)
			}
			log.Printf("gapd: netfault enabled: %s", planStr)
		}
		c, err := cluster.New(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gapd: %v\n", err)
			os.Exit(1)
		}
		clu = c
		clu.Start(ctx)
		defer clu.Close()
	}

	handler := serve.NewHandler(serve.Options{
		Pool:           pool,
		Cluster:        clu,
		MaxBodyBytes:   *maxBody,
		RequestTimeout: *reqTimeout,
		MaxQueueDepth:  *maxQueue,
		MaxPerClient:   *maxPerClient,
	})

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	errCh := make(chan error, 1)
	go func() {
		if clu != nil {
			log.Printf("gapd: node %s in a %d-node cluster (hedge after %v)",
				clu.Self(), len(clu.Ring().Peers()), *hedgeAfter)
		}
		log.Printf("gapd: listening on %s (%d workers, cache %d entries, job timeout %v, journal %q)",
			*addr, pool.Workers(), pool.Cache().Cap(), *timeout, *journalDir)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "gapd: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop()
		log.Printf("gapd: shutting down (drain limit %v)", *drainTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// A clustered node drains before closing the listener: announce
		// the drain (ownership re-ranks away from this node, fresh
		// requests shed to the next rendezvous rank) and migrate every
		// held result to its new home while still serving.
		if clu != nil {
			if migrated, err := handler.StartDrain(shutdownCtx); err != nil {
				log.Printf("gapd: drain handoff incomplete (%d results migrated): %v", migrated, err)
			} else {
				log.Printf("gapd: drained: %d results migrated to new owners", migrated)
			}
		}
		// Shutdown waits for in-flight requests; since jobs run on the
		// request goroutine, this drains the worker pool too. Jobs still
		// running at the deadline keep their accept-only journal records,
		// so the next boot re-executes exactly those.
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("gapd: drain expired: %v", err)
		}
		// Replica pushes spawned off the response path may still be in
		// flight; wait for them before the final handoff sweep counts
		// what is left to migrate (and before Leave tears the peer down).
		handler.Quiesce()
		if clu != nil {
			// Results that completed during the drain window migrate in a
			// final sweep now that the server has quiesced; then announce
			// clean departure so peers record "left", not "dead".
			if migrated := clu.HandoffNow(shutdownCtx); migrated > 0 {
				log.Printf("gapd: final handoff: %d late results migrated", migrated)
			}
			clu.Leave(shutdownCtx)
		}
	}
	if err := journal.Sync(); err != nil {
		log.Printf("gapd: journal sync: %v", err)
	}
	log.Printf("gapd: bye (%d jobs in flight, %d queued)", pool.InFlight(), pool.QueueDepth())
}
