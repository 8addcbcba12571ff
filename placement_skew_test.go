package partalloc_test

import (
	"fmt"
	"math"
	"testing"

	"partalloc"
)

// The skew fleet: 48 A_Rand tenants on 64-PE machines whose Poisson
// arrival counts decay as zipf(0.8) in rank (6000 for the heaviest, a
// floor of 200), ingested into 8 shards with 1024-event batches.
const (
	skewTenants    = 48
	skewShards     = 8
	skewZipfS      = 0.8
	skewBase       = 6000
	skewFloor      = 200
	skewN          = 64
	skewBatch      = 1024
	skewBursts     = 12 // Submit calls per stream
	skewMinBurst   = 16 // burst floor for the light tail
	skewFlushEvery = 4  // flush every tenant after this many bursts
	skewSeed       = 1
)

func skewID(i int) string { return fmt.Sprintf("tenant-%02d", i) }

// skewStreams builds the per-tenant zipf-sized event streams.
func skewStreams() map[string][]partalloc.Event {
	out := make(map[string][]partalloc.Event, skewTenants)
	for i := 0; i < skewTenants; i++ {
		a := int(skewBase / math.Pow(float64(i+1), skewZipfS))
		if a < skewFloor {
			a = skewFloor
		}
		out[skewID(i)] = partalloc.PoissonWorkload(partalloc.WorkloadConfig{
			N: skewN, Arrivals: a, Seed: skewSeed + int64(i),
		}).Events
	}
	return out
}

// skewEngineOptions configures a hash- or balanced-placed skew engine.
func skewEngineOptions(balanced bool, extra ...partalloc.EngineOption) []partalloc.EngineOption {
	opts := []partalloc.EngineOption{partalloc.WithShards(skewShards), partalloc.WithBatchSize(skewBatch)}
	if balanced {
		opts = append(opts,
			partalloc.WithPlacement(partalloc.PlacementBalanced),
			partalloc.WithRebalanceD(1),
			partalloc.WithRebalanceEvery(32))
	}
	return append(opts, extra...)
}

// newSkewEngine builds a skew engine and registers the fleet on it.
func newSkewEngine(t *testing.T, opts []partalloc.EngineOption) *partalloc.Engine {
	t.Helper()
	eng, err := partalloc.NewEngine(opts...)
	if err != nil {
		t.Fatal(err)
	}
	m := partalloc.MustNewMachine(skewN)
	for i := 0; i < skewTenants; i++ {
		if err := eng.AddTenant(skewID(i), partalloc.AlgoRandom, m, partalloc.WithSeed(skewSeed+int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// driveSkew ingests every stream round-robin: each round every tenant
// submits one volume-proportional burst, and every skewFlushEvery
// rounds the fleet flushes, the way latency-bound clients force results
// out. The schedule is what concurrent clients look like from a shard's
// queue, but deterministic, so backlogs compare placements rather than
// scheduler luck.
func driveSkew(t *testing.T, eng *partalloc.Engine, streams map[string][]partalloc.Event) {
	t.Helper()
	burst := make([]int, skewTenants)
	for i := range burst {
		burst[i] = max((len(streams[skewID(i)])+skewBursts-1)/skewBursts, skewMinBurst)
	}
	for round := 0; round < skewBursts; round++ {
		for i := 0; i < skewTenants; i++ {
			evs := streams[skewID(i)]
			off := round * burst[i]
			if off >= len(evs) {
				continue
			}
			if err := eng.Submit(skewID(i), evs[off:min(off+burst[i], len(evs))]...); err != nil {
				t.Fatal(err)
			}
		}
		if (round+1)%skewFlushEvery == 0 {
			for i := 0; i < skewTenants; i++ {
				if err := eng.Flush(skewID(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

// skewHotShardPeak ingests the first third of every stream as warmup,
// forces 8 rebalance passes (a no-op under hash placement) so routing
// converges, resets the shard peaks, ingests the remainder, and returns
// the engine and the highest backlog any shard reached in that phase.
func skewHotShardPeak(t *testing.T, balanced bool, streams map[string][]partalloc.Event) (*partalloc.Engine, int) {
	t.Helper()
	eng := newSkewEngine(t, skewEngineOptions(balanced))
	warm := make(map[string][]partalloc.Event, len(streams))
	rest := make(map[string][]partalloc.Event, len(streams))
	for id, evs := range streams {
		cut := len(evs) / 3
		warm[id], rest[id] = evs[:cut], evs[cut:]
	}
	driveSkew(t, eng, warm)
	for i := 0; i < 8; i++ {
		if _, err := eng.Rebalance(); err != nil {
			t.Fatal(err)
		}
	}
	eng.ResetShardPeaks()
	driveSkew(t, eng, rest)
	peak := 0
	for _, st := range eng.ShardStats() {
		peak = max(peak, st.PeakQueued)
	}
	return eng, peak
}

// TestBalancedPlacementLowersHotShardPeak gates the balanced placer on a
// skewed fleet: A_M(d) rebalancing must leave the hottest shard a
// strictly smaller peak backlog than hash placement, with no audit
// violations, and a journaled balanced run must recover its exact
// routing table by replaying its TypeMove records. Every figure is a
// pure function of the seeded streams (event-count loads, a
// single-goroutine driver), so the strict inequality is stable.
func TestBalancedPlacementLowersHotShardPeak(t *testing.T) {
	streams := skewStreams()

	_, hashPeak := skewHotShardPeak(t, false, streams)
	beng, balancedPeak := skewHotShardPeak(t, true, streams)
	t.Logf("hot-shard peak queue: hash %d, balanced %d", hashPeak, balancedPeak)
	if balancedPeak >= hashPeak {
		t.Errorf("hot-shard peak queue: balanced %d, hash %d; want balanced strictly below", balancedPeak, hashPeak)
	}
	if v := beng.RebalanceStats().Violations; len(v) != 0 {
		t.Errorf("rebalance audit violations: %v", v)
	}

	dir := t.TempDir()
	jeng := newSkewEngine(t, skewEngineOptions(true, partalloc.WithJournal(dir)))
	driveSkew(t, jeng, streams)
	before := jeng.Routes()
	if err := jeng.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := partalloc.RecoverEngine(dir, skewEngineOptions(true)...)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	after := rec.Routes()
	if len(before) != len(after) {
		t.Fatalf("recovered %d routes, want %d", len(after), len(before))
	}
	for id, idx := range before {
		if after[id] != idx {
			t.Errorf("tenant %s: recovered route %d, want %d", id, after[id], idx)
		}
	}
	if n := rec.RecoveryStats().MovesReplayed; n < 1 {
		t.Errorf("recovery replayed %d moves, want ≥1", n)
	}
}
