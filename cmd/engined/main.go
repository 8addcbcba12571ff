// Command engined runs the allocation engine's two long-lived modes:
// the seeded chaos soak and the observability server. Benchmarks live in
// perfbench (see perfbench/README.md), not here.
//
// Usage:
//
//	engined -chaos [-chaos-rounds 12] [-seed 1] [-placement hash|balanced]
//	engined -listen addr [-seed 1]
//
// With -chaos, engined runs the seeded chaos soak (see chaos.go and
// docs/ENGINE.md): poison pills, allocator stalls, mid-batch PE faults,
// and kill/recover cycles, with audited invariants, byte-identical
// recovery, and breaker-healed tenants as the pass criteria; adding
// -placement balanced forces a rebalance pass every round and gates
// each recovery on routing-table identity.
//
// With -listen, engined builds one observed engine — metrics registry,
// flight recorder, and a write-ahead journal (batched fsync) feeding the
// same registry — serves /metrics, /debug/pprof and /debug/flightrec on
// addr, drives a fixed small A_Rand fleet through it, and keeps serving
// until interrupted (see docs/OBSERVABILITY.md).
//
// SIGINT during the soak or the fleet's ingestion abandons the run and
// exits 130, like every other runner in this repo; SIGINT while -listen
// is serving is the normal way out and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"partalloc"
	"partalloc/internal/cli"
)

// The -listen fleet: eight A_Rand tenants on 64-PE machines, 600 Poisson
// arrivals each, ingested in 256-event batches.
const (
	listenTenants  = 8
	listenArrivals = 600
	listenN        = 64
	listenBatch    = 256
)

func main() {
	chaos := flag.Bool("chaos", false, "run the seeded chaos soak (docs/ENGINE.md)")
	chaosRounds := flag.Int("chaos-rounds", 12, "rounds in the -chaos soak")
	seed := flag.Int64("seed", 1, "base seed for the chaos soak or the -listen fleet's workloads")
	placementName := flag.String("placement", "hash", "tenant→shard placement for the -chaos soak: hash or balanced")
	listen := flag.String("listen", "", "serve /metrics, /debug/pprof and /debug/flightrec on this address for an observed fleet, until interrupted")
	flag.Parse()

	switch {
	case *chaos:
		if *placementName != "hash" && *placementName != "balanced" {
			fatal(fmt.Errorf("unknown -placement %q (want hash or balanced)", *placementName))
		}
		ctx, stop := cli.WithInterrupt(context.Background(), func() {
			fmt.Fprintln(os.Stderr, "engined: interrupt — abandoning the chaos soak")
		})
		defer stop()
		if err := runChaos(ctx, *seed, *chaosRounds, *placementName == "balanced"); err != nil {
			fail(err)
		}
	case *listen != "":
		ctx, stop := cli.WithInterrupt(context.Background(), func() {
			fmt.Fprintln(os.Stderr, "engined: interrupt — shutting down")
		})
		defer stop()
		if err := runListen(ctx, *listen, *seed); err != nil {
			fail(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "engined: want -chaos or -listen addr")
		flag.Usage()
		os.Exit(2)
	}
}

// runListen builds the observed engine, starts the HTTP surface on addr,
// ingests the fleet, and serves until ctx is done.
func runListen(ctx context.Context, addr string, seed int64) error {
	dir, err := os.MkdirTemp("", "engined-obs-journal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	eng, err := partalloc.NewEngine(
		partalloc.WithBatchSize(listenBatch),
		partalloc.WithMetrics(partalloc.NewMetrics()),
		partalloc.WithFlightRecorder(4096),
		partalloc.WithJournal(dir),
		partalloc.WithJournalSync(partalloc.JournalSyncBatched))
	if err != nil {
		return err
	}
	defer eng.Close() // error paths; the success path checks Close below

	bound, err := serveObs(ctx, addr, eng)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "engined: listening on http://%s\n", bound)

	m := partalloc.MustNewMachine(listenN)
	streams := make(map[string][]partalloc.Event, listenTenants)
	for i := 0; i < listenTenants; i++ {
		id := fmt.Sprintf("tenant-%02d", i)
		if err := eng.AddTenant(id, partalloc.AlgoRandom, m, partalloc.WithSeed(seed+int64(i))); err != nil {
			return err
		}
		streams[id] = partalloc.PoissonWorkload(partalloc.WorkloadConfig{
			N: listenN, Arrivals: listenArrivals, Seed: seed + int64(i),
		}).Events
	}
	if err := eng.Replay(ctx, streams); err != nil {
		return err
	}

	// The marker line is what scripts/obs-smoke.sh waits for before
	// scraping: every series the fleet feeds exists from here on.
	fmt.Fprintf(os.Stderr, "engined: serving observability endpoints on http://%s — interrupt to exit\n", bound)
	<-ctx.Done()
	return eng.Close()
}

// fail distinguishes cancellation (exit 130, the runner convention) from
// real errors.
func fail(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "engined: interrupted")
		os.Exit(130)
	}
	fatal(err)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "engined:", err)
	os.Exit(1)
}
