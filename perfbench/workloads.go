package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"partalloc"
)

// Every workload submits in chunks of submitChunk events with the
// engine's default batch size (256).
const submitChunk = 32

// tenantDef is one tenant of a workload: how to build its allocator
// and the event stream its client submits.
type tenantDef struct {
	ID     string
	Algo   partalloc.Algorithm
	N      int
	D      int   // reallocation parameter, for A_M and A_M-lazy
	Seed   int64 // allocator seed, for A_Rand
	Events []partalloc.Event
	Owner  int // index of the client that submits this tenant's stream
}

// options returns the allocator options AddTenant receives.
func (t tenantDef) options() []partalloc.Option {
	switch t.Algo {
	case partalloc.AlgoPeriodic, partalloc.AlgoLazy:
		return []partalloc.Option{partalloc.WithD(t.D)}
	case partalloc.AlgoRandom:
		return []partalloc.Option{partalloc.WithSeed(t.Seed)}
	}
	return nil
}

// engineSettings is the engine configuration of a workload. The same
// settings build the facade engine of untraced rounds and the
// internal engine of traced rounds.
type engineSettings struct {
	Journal       bool // WithJournal(JournalSyncNever), then Close and RecoverEngine
	SnapshotEvery int  // WithSnapshotEvery; 0 = off
	Shards        int  // WithShards; 0 = the engine's default
	Balanced      bool // WithPlacement(PlacementBalanced)
	Obs           bool // WithMetrics + WithFlightRecorder(flightEvents)
}

const flightEvents = 4096

// workload is a generated set of inputs: tenants with their streams,
// the engine settings, and the traffic shape.
type workload struct {
	Name    string
	Tenants []tenantDef
	Engine  engineSettings
	// ReadEvery > 0: a client calls TenantStats on a tenant after every
	// ReadEvery-th Submit. ReadEvery == 0: reads happen in a sweep after
	// FlushAll instead, sweepReads calls per round.
	ReadEvery int
	// FlushOnEnd: a client calls Flush on a tenant when its stream ends.
	FlushOnEnd bool
}

const (
	clients    = 2
	sweepReads = 4096
)

// Workload sizes. A round ingests every stream once; they are sized so
// that a round takes a fraction of a second to about a second on a
// 2-CPU box, and a run holds several rounds.
const (
	ingestRandTenants  = 16
	ingestRandArrivals = 32768 // per tenant; two events per arrival
	reallocTenants     = 8
	reallocEvents      = 32768 // per tenant
	durableTenants     = 48
	durableBase        = 49152 // arrivals of the heaviest tenant
	durableZipf        = 0.8
)

var workloadNames = []string{"ingest-rand", "realloc-am", "durable-skew"}

// generate builds workload name from seed. The same seed gives the
// same streams; the engine sees only these streams.
func generate(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	var w *workload
	switch name {
	case "ingest-rand":
		w = &workload{Name: name}
		for i := 0; i < ingestRandTenants; i++ {
			seq := partalloc.PoissonWorkload(partalloc.WorkloadConfig{
				N: 1024, Arrivals: ingestRandArrivals, Seed: rng.Int63(),
			})
			w.Tenants = append(w.Tenants, tenantDef{
				ID: tenantID(i), Algo: partalloc.AlgoRandom, N: 1024, Seed: rng.Int63(), Events: seq.Events,
			})
		}
	case "realloc-am":
		w = &workload{Name: name}
		for i := 0; i < reallocTenants; i++ {
			algo := partalloc.AlgoPeriodic
			if i >= reallocTenants/2 {
				algo = partalloc.AlgoLazy
			}
			seq := partalloc.SaturationWorkload(partalloc.SaturationConfig{
				N: 256, Target: 8, Churn: 0.25, Events: reallocEvents, Seed: rng.Int63(),
			})
			w.Tenants = append(w.Tenants, tenantDef{
				ID: tenantID(i), Algo: algo, N: 256, D: 1, Events: seq.Events,
			})
		}
	case "durable-skew":
		w = &workload{
			Name: name,
			Engine: engineSettings{
				Journal: true, SnapshotEvery: 8, Shards: 8, Balanced: true, Obs: true,
			},
			ReadEvery:  16,
			FlushOnEnd: true,
		}
		for i := 0; i < durableTenants; i++ {
			arrivals := int(float64(durableBase) / math.Pow(float64(i+1), durableZipf))
			seq := partalloc.PoissonWorkload(partalloc.WorkloadConfig{
				N: 256, Arrivals: arrivals, Seed: rng.Int63(),
			})
			t := tenantDef{ID: tenantID(i), Algo: partalloc.AlgoBasic, N: 256, Events: seq.Events}
			if i%2 == 1 {
				t.Algo, t.Seed = partalloc.AlgoRandom, rng.Int63()
			}
			w.Tenants = append(w.Tenants, t)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	assignOwners(w.Tenants)
	return w, nil
}

func tenantID(i int) string { return fmt.Sprintf("t%02d", i) }

// assignOwners splits the tenants between the clients by longest
// stream first, each to the client with fewer events so far, so both
// clients submit about the same number of events and neither idles
// while the other finishes.
func assignOwners(ts []tenantDef) {
	order := make([]int, len(ts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return len(ts[order[a]].Events) > len(ts[order[b]].Events) })
	var load [clients]int
	for _, i := range order {
		c := 0
		for k := 1; k < clients; k++ {
			if load[k] < load[c] {
				c = k
			}
		}
		ts[i].Owner = c
		load[c] += len(ts[i].Events)
	}
}

// totalEvents is the number of events one round applies.
func (w *workload) totalEvents() int64 {
	var n int64
	for _, t := range w.Tenants {
		n += int64(len(t.Events))
	}
	return n
}

// submitsOf is the number of Submit calls client c makes per round.
func (w *workload) submitsOf(c int) int {
	n := 0
	for _, t := range w.Tenants {
		if t.Owner == c {
			n += (len(t.Events) + submitChunk - 1) / submitChunk
		}
	}
	return n
}
