package main

import (
	"fmt"

	"partalloc"
	"partalloc/internal/engine"
	"partalloc/internal/obs"
	"partalloc/internal/wal"
)

// engineAPI is the engine surface the benchmark drives. The public
// *partalloc.Engine runs untraced rounds; traced rounds run the
// internal *engine.Engine behind it, because only there can the
// benchmark put its decorator between the engine and the allocators.
type engineAPI interface {
	Submit(id string, evs ...partalloc.Event) error
	Flush(id string) error
	FlushAll() error
	TenantStats(id string) (partalloc.EngineTenantStats, error)
	ShardStats() []partalloc.EngineShardStats
	RebalanceStats() partalloc.RebalanceStats
	RecoveryStats() partalloc.RecoveryStats
}

// system is one engine under test.
type system struct {
	api     engineAPI
	metrics *partalloc.Metrics // nil unless the settings attach obs
	close   func() error
}

// facadeOptions are the EngineOptions of settings s, journaling to dir.
func facadeOptions(s engineSettings, dir string, m *partalloc.Metrics) []partalloc.EngineOption {
	var opts []partalloc.EngineOption
	if s.Journal {
		// Never fsync: on a shared disk fsync latency drifts too far
		// for any bound to hold (README.md, journal sync policy).
		opts = append(opts, partalloc.WithJournal(dir), partalloc.WithJournalSync(partalloc.JournalSyncNever))
	}
	if s.SnapshotEvery > 0 {
		opts = append(opts, partalloc.WithSnapshotEvery(s.SnapshotEvery))
	}
	if s.Shards > 0 {
		opts = append(opts, partalloc.WithShards(s.Shards))
	}
	if s.Balanced {
		opts = append(opts, partalloc.WithPlacement(partalloc.PlacementBalanced))
	}
	if m != nil {
		opts = append(opts, partalloc.WithMetrics(m), partalloc.WithFlightRecorder(flightEvents))
	}
	return opts
}

// engineConfig is the engine.Config the facade builds from the same
// settings, with the traced rebuild function installed.
func engineConfig(s engineSettings, m *partalloc.Metrics, tr *tracer) (engine.Config, wal.Options) {
	cfg := engine.Config{
		Shards:        s.Shards,
		Rebuild:       tr.rebuild,
		SnapshotEvery: s.SnapshotEvery,
	}
	if s.Balanced {
		cfg.Placement = engine.PlacementBalanced
	}
	if m != nil {
		cfg.Sink = obs.NewSink(m, obs.NewFlightRecorder(flightEvents))
	}
	return cfg, wal.Options{Sync: wal.SyncNever, Sink: cfg.Sink}
}

func newMetrics(s engineSettings) *partalloc.Metrics {
	if s.Obs {
		return partalloc.NewMetrics()
	}
	return nil
}

// build creates the engine and registers every tenant: the set-up a
// user pays before the first Submit. tr == nil builds the facade
// engine; otherwise the traced internal engine.
func build(w *workload, s engineSettings, dir string, tr *tracer) (*system, error) {
	m := newMetrics(s)
	if tr == nil {
		eng, err := partalloc.NewEngine(facadeOptions(s, dir, m)...)
		if err != nil {
			return nil, err
		}
		for _, t := range w.Tenants {
			mach, err := partalloc.NewMachine(t.N)
			if err != nil {
				return nil, err
			}
			if err := eng.AddTenant(t.ID, t.Algo, mach, t.options()...); err != nil {
				return nil, err
			}
		}
		return &system{api: eng, metrics: m, close: eng.Close}, nil
	}
	cfg, wopt := engineConfig(s, m, tr)
	if s.Journal {
		log, err := wal.Open(dir, wopt)
		if err != nil {
			return nil, err
		}
		cfg.Journal = log
	}
	eng := engine.New(cfg)
	for _, t := range w.Tenants {
		mach, err := partalloc.NewMachine(t.N)
		if err != nil {
			return nil, err
		}
		a, err := partalloc.New(t.Algo, mach, t.options()...)
		if err != nil {
			return nil, err
		}
		d, err := decorate(a, tr.tenants[t.ID])
		if err != nil {
			return nil, err
		}
		if err := eng.AddTenant(t.ID, d, engine.WithTenantSpec(t.tenantSpec())); err != nil {
			return nil, err
		}
	}
	return &system{api: eng, metrics: m, close: closeJournal(eng)}, nil
}

// recoverSystem rebuilds the engine from the journal in dir, as
// RecoverEngine does for the facade.
func recoverSystem(s engineSettings, dir string, tr *tracer) (*system, error) {
	m := newMetrics(s)
	if tr == nil {
		eng, err := partalloc.RecoverEngine(dir, facadeOptions(s, dir, m)...)
		if err != nil {
			return nil, err
		}
		return &system{api: eng, metrics: m, close: eng.Close}, nil
	}
	cfg, wopt := engineConfig(s, m, tr)
	eng, err := engine.Recover(cfg, dir, wopt)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	return &system{api: eng, metrics: m, close: closeJournal(eng)}, nil
}

func closeJournal(eng *engine.Engine) func() error {
	return func() error {
		if j := eng.Journal(); j != nil {
			return j.Close()
		}
		return nil
	}
}
