// Write-ahead journaling and crash recovery. The journal mirrors
// ingestion *calls*, not abstract event streams: a TypeSubmit record is
// one accepted Submit, a TypeApply record is one Replay batch (bypassing
// the queue), a TypeFlush is an explicit flush, and a TypeRebuild is a
// circuit-breaker rebuild. Replaying the records therefore reproduces
// the engine's queue and batch structure exactly — Recover yields the
// same Events/Queued/Batches/PeakLoad ledger an uninterrupted run has,
// not merely the same final placements.
//
// Every record is appended before the state change it describes
// (append-before-apply), so the journal can only ever be ahead of the
// in-memory state, never behind; a record whose apply was cut short by
// the crash is simply re-applied.
package engine

import (
	"encoding/json"
	"errors"
	"fmt"

	"partalloc/internal/errs"
	"partalloc/internal/task"
	"partalloc/internal/wal"
)

// TenantSpec is a tenant's serializable rebuild recipe: everything
// Config.Rebuild needs to reconstruct the allocator, fault schedule, and
// topology host from scratch. The engine treats all fields except ID as
// opaque; the partalloc facade fills them from the same options it
// builds the live allocator with.
type TenantSpec struct {
	// ID is the tenant ID.
	ID string
	// Algorithm is the parseable algorithm name (partalloc.ParseAlgorithm).
	Algorithm string `json:",omitempty"`
	// N is the machine size in PEs.
	N int `json:",omitempty"`
	// D is the reallocation parameter; DSet distinguishes an explicit 0.
	D    int  `json:",omitempty"`
	DSet bool `json:",omitempty"`
	// Order is the reallocation order ("", "decreasing", "arrival").
	Order string `json:",omitempty"`
	// Seed is the A_Rand seed; SeedSet distinguishes an explicit 0.
	Seed    int64 `json:",omitempty"`
	SeedSet bool  `json:",omitempty"`
	// Topology names the physical network ("" = plain tree machine).
	Topology string `json:",omitempty"`
	// Faults is the fault schedule in internal/fault text format.
	Faults string `json:",omitempty"`
}

// journalAppend serializes appends across shards. The wal.Log is not
// concurrency-safe, and interleaved partial frames would corrupt the
// log for every tenant at once.
func (e *Engine) journalAppend(rec wal.Record) error {
	e.jmu.Lock()
	defer e.jmu.Unlock()
	//lint:ignore lockorder jmu exists precisely to serialize this write: wal.Log is single-writer, and an interleaved frame would corrupt the log for every tenant
	if err := e.cfg.Journal.Append(rec); err != nil {
		return fmt.Errorf("engine: journal: %w", err)
	}
	return nil
}

func (e *Engine) journalAddTenant(t *tenant) error {
	if e.cfg.Journal == nil {
		return nil
	}
	data, err := json.Marshal(t.spec)
	if err != nil {
		return fmt.Errorf("engine: journal: marshal spec %q: %w", t.id, err)
	}
	return e.journalAppend(wal.Record{Type: wal.TypeAddTenant, Tenant: t.id, Data: data})
}

func (e *Engine) journalSubmit(t *tenant, evs []task.Event) error {
	if e.cfg.Journal == nil || len(evs) == 0 {
		return nil
	}
	return e.journalAppend(wal.Record{Type: wal.TypeSubmit, Tenant: t.id, Data: wal.AppendEvents(nil, evs)})
}

func (e *Engine) journalApply(t *tenant, flushFirst bool, evs []task.Event) error {
	if e.cfg.Journal == nil {
		return nil
	}
	return e.journalAppend(wal.Record{Type: wal.TypeApply, Tenant: t.id, Data: wal.AppendApply(nil, flushFirst, evs)})
}

func (e *Engine) journalFlush(t *tenant) error {
	if e.cfg.Journal == nil {
		return nil
	}
	return e.journalAppend(wal.Record{Type: wal.TypeFlush, Tenant: t.id})
}

// history scans the journal once for t's reconstruction inputs. The
// base is where a rebuild starts: the tenant's latest snapshot that no
// TypeRemove supersedes or, with none, its bare spec at event 0 (an
// envelope without allocator bytes). The tail is every event after the
// base: the snapshot's queued events, then each later Submit/Apply
// record's events, with every TypeRebuild applied as a truncation — a
// rebuild keeps a prefix of the full stream and drops the rest, so its
// keep count translates by base.Events, and previously dropped poisonous
// suffixes never resurface. Tail position p is stream event
// base.Events+p. stopBefore ≥ 0 bounds the scan to records strictly
// before that ordinal — recovery rebuilds "as of" a journaled rebuild
// record; -1 scans everything.
//
// Reading the journal directory while other shards append is safe: a
// frame is written with one write(2), so a concurrent reader sees only
// whole frames plus possibly a torn tail, which Replay tolerates — and
// every record of *this* tenant is already fully written, because its
// shard lock (held by the caller) serializes them.
func (e *Engine) history(t *tenant, stopBefore int) (*tenantSnapshot, []task.Event, error) {
	spec := &tenantSnapshot{Spec: t.spec}
	base, tail := spec, []task.Event(nil)
	err := wal.Replay(e.cfg.Journal.Dir(), func(ord int, rec wal.Record) error {
		if stopBefore >= 0 && ord >= stopBefore {
			return wal.ErrStop
		}
		if rec.Tenant != t.id {
			return nil
		}
		var evs []task.Event
		var err error
		switch rec.Type {
		case wal.TypeSnapshot:
			if base, err = decodeSnapshot(rec.Data); err == nil {
				tail, err = wal.DecodeEvents(base.Queue)
			}
		case wal.TypeRemove:
			// The tenant left this engine (MoveTenant); a tenant with the
			// same ID registered later starts a fresh stream, and snapshots
			// from its previous life describe state this one never had.
			base, tail = spec, nil
		case wal.TypeSubmit:
			evs, err = wal.DecodeEvents(rec.Data)
			tail = append(tail, evs...)
		case wal.TypeApply:
			_, evs, err = wal.DecodeApply(rec.Data)
			tail = append(tail, evs...)
		case wal.TypeRebuild:
			var keep int64
			if keep, _, err = wal.DecodeRebuild(rec.Data); err == nil {
				if rel := keep - base.Events; rel >= 0 && rel <= int64(len(tail)) {
					tail = tail[:rel]
				} else {
					err = fmt.Errorf("rebuild keeps %d events but the base covers %d+%d", keep, base.Events, len(tail))
				}
			}
		}
		if err != nil {
			return fmt.Errorf("engine: journal record %d: %w", ord, err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return base, tail, nil
}

// probe is the circuit breaker's half-open transition: rebuild the
// poisoned tenant from its base plus the safe part of its tail — the
// t.events events that were applied successfully — and drop the
// poisonous suffix. When the base was a snapshot, a healing snapshot of
// the rebuilt state follows the TypeRebuild record, so a crash after the
// probe recovers the healed ledger directly. On success the tenant is
// healthy again (t.err == nil); on failure the breaker re-opens with a
// doubled backoff. Callers hold the shard lock.
func (e *Engine) probe(t *tenant) error {
	base, tail, err := e.history(t, -1)
	if err != nil {
		e.rearm(t)
		return err
	}
	drop, err := e.rebuildTenant(t, base, tail, t.events, true)
	if err != nil {
		return err
	}
	if base.Alloc != nil {
		if err := e.snapshotTenant(t); err != nil {
			return err
		}
	}
	t.sink.BreakerHeal(t.id, drop)
	return nil
}

// rearm re-opens the breaker after a failed probe: the trip count rises,
// doubling the next backoff.
func (e *Engine) rearm(t *tenant) {
	t.trips++
	t.deadline = e.now() + e.backoff(t)
}

// rebuildTenant replaces t with its base plus the first keep-base.Events
// events of its tail — the one reconstruction path the half-open probe
// and recovery's TypeRebuild redo share. The restored tenant restarts on
// rung 0 of its degradation ladder (restoreTenant) and keeps t's shed
// count, trip count, and breaker deadline; the rest of the tail is
// dropped and added to DroppedEvents. The kept events replay in
// batch-sized chunks (replayChunks), the chunking an uninterrupted
// ingestion of exactly these events would have used, so rebuilt ledgers
// match recovery's. journal=true is the live probe: the TypeRebuild
// record is appended once the fresh tenant is built and before it
// replaces t, so a failing recipe leaves no record. A failure before the
// replacement re-arms the breaker. Returns the dropped count. Callers
// hold the shard lock.
func (e *Engine) rebuildTenant(t *tenant, base *tenantSnapshot, tail []task.Event, keep int64, journal bool) (int64, error) {
	need := keep - base.Events
	if need < 0 || need > int64(len(tail)) {
		e.rearm(t)
		return 0, fmt.Errorf("engine: rebuild %q: %d events were applied but the journal holds %d+%d",
			t.id, keep, base.Events, len(tail))
	}
	drop := int64(len(tail)) - need
	nt, err := e.restoreTenant(base)
	if err == nil && journal {
		err = e.journalAppend(wal.Record{Type: wal.TypeRebuild, Tenant: t.id, Data: wal.AppendRebuild(nil, keep, drop)})
	}
	if err != nil {
		e.rearm(t)
		return 0, err
	}
	// The base's queued events head the tail; applying them from the tail
	// and leaving them queued would double them.
	nt.queue = nil
	nt.shed = t.shed
	nt.dropped = t.dropped + drop
	nt.trips = t.trips
	nt.deadline = t.deadline
	*t = *nt
	wireObserver(t)
	return drop, e.replayChunks(t, tail[:need])
}

// Recover reconstructs an engine from the journal in dir: the log is
// opened (repairing any torn tail), then every record is re-applied in
// order through the same code paths live ingestion uses. cfg.Rebuild is
// required; cfg.Journal is replaced by the reopened log, so the
// recovered engine keeps journaling where the crashed one stopped.
//
// With snapshots in the log (Config.SnapshotEvery on the crashed
// engine), recovery is O(tail): a first pass finds each tenant's last
// snapshot, the second pass skips every record older than it, restores
// the snapshot, and replays only what follows. RecoveryStats reports
// the split.
//
// Recovery is deterministic for everything the ingestion history
// determines: TenantStats of a recovered engine match an uninterrupted
// run byte-for-byte under CanonicalStats. (Under the Degrade policy the
// knob itself is driven by wall-clock latency, so placements may differ
// across runs — that is true of two uninterrupted runs too.)
func Recover(cfg Config, dir string, wopt wal.Options) (*Engine, error) {
	if cfg.Rebuild == nil {
		return nil, errors.New("engine: Recover requires Config.Rebuild")
	}
	log, err := wal.Open(dir, wopt)
	if err != nil {
		return nil, err
	}
	cfg.Journal = log
	e := New(cfg)
	e.resetOrd = make(map[string]int)
	// Pass 1: find each tenant's reset point — its last snapshot (restore
	// from there) or removal (forget everything before).
	if err := wal.Replay(dir, func(ord int, rec wal.Record) error {
		e.recStats.RecordsScanned++
		if rec.Type == wal.TypeSnapshot || rec.Type == wal.TypeRemove {
			e.resetOrd[rec.Tenant] = ord
		}
		return nil
	}); err != nil {
		log.Close()
		return nil, err
	}
	if err := wal.Replay(dir, e.dispatch); err != nil {
		log.Close()
		return nil, err
	}
	e.resetOrd = nil
	cfg.Sink.Recovery(e.recStats.SnapshotsRestored, e.recStats.RecordsReplayed, e.recStats.RecordsSkipped)
	return e, nil
}

// dispatch re-applies one journal record during Recover. Records older
// than the tenant's reset point (its last snapshot or removal) are
// skipped — the snapshot already summarizes them.
func (e *Engine) dispatch(ord int, rec wal.Record) error {
	if ro, ok := e.resetOrd[rec.Tenant]; ok {
		if ord < ro {
			e.recStats.RecordsSkipped++
			return nil
		}
		if ord == ro {
			if rec.Type == wal.TypeSnapshot {
				e.recStats.SnapshotsRestored++
				return e.restoreSnapshot(ord, rec)
			}
			// TypeRemove: every earlier record was skipped, so there is
			// nothing to forget.
			e.recStats.RecordsSkipped++
			return nil
		}
	}
	e.recStats.RecordsReplayed++
	switch rec.Type {
	case wal.TypeAddTenant:
		var spec TenantSpec
		if err := json.Unmarshal(rec.Data, &spec); err != nil {
			return fmt.Errorf("engine: recover record %d: %w", ord, err)
		}
		a, faults, host, err := e.cfg.Rebuild(spec)
		if err != nil {
			return fmt.Errorf("engine: recover %q: %w", spec.ID, err)
		}
		return e.addTenant(spec, true, a, faults, host, false)
	case wal.TypeSubmit:
		evs, err := wal.DecodeEvents(rec.Data)
		if err != nil {
			return fmt.Errorf("engine: recover record %d: %w", ord, err)
		}
		return e.redo(rec.Tenant, ord, func(t *tenant) error { return e.ingest(t, evs) })
	case wal.TypeApply:
		flushFirst, evs, err := wal.DecodeApply(rec.Data)
		if err != nil {
			return fmt.Errorf("engine: recover record %d: %w", ord, err)
		}
		return e.redo(rec.Tenant, ord, func(t *tenant) error {
			if flushFirst {
				if err := e.flushTenant(t); err != nil {
					return err
				}
			}
			return e.apply(t, evs)
		})
	case wal.TypeFlush:
		return e.redo(rec.Tenant, ord, func(t *tenant) error { return e.flushTenant(t) })
	case wal.TypeRebuild:
		keep, drop, err := wal.DecodeRebuild(rec.Data)
		if err != nil {
			return fmt.Errorf("engine: recover record %d: %w", ord, err)
		}
		return e.redoRebuild(rec.Tenant, ord, keep, drop)
	case wal.TypeSnapshot:
		// Unreachable in practice — pass 1 makes the last snapshot the
		// reset point — but a restore is always a faithful re-application.
		e.recStats.RecordsReplayed--
		e.recStats.SnapshotsRestored++
		return e.restoreSnapshot(ord, rec)
	case wal.TypeRemove:
		return e.removeTenantLocal(rec.Tenant)
	case wal.TypeMove:
		from, to, err := wal.DecodeMove(rec.Data)
		if err != nil {
			return fmt.Errorf("engine: recover record %d: %w", ord, err)
		}
		if err := e.redoMove(rec.Tenant, ord, from, to); err != nil {
			return err
		}
		e.recStats.MovesReplayed++
		return nil
	default:
		return fmt.Errorf("engine: recover record %d: unknown record type %d", ord, rec.Type)
	}
}

// redo runs fn against the named tenant, swallowing poisoning errors: a
// record whose application poisons the tenant is the journal faithfully
// reproducing the original failure — the tenant ends up poisoned exactly
// as the crashed engine had it — not a recovery failure. No breaker
// probing happens here; rebuilds exist in the journal as records of
// their own.
func (e *Engine) redo(id string, ord int, fn func(*tenant) error) error {
	s := e.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[id]
	if !ok {
		return fmt.Errorf("engine: recover record %d: %w: %q", ord, ErrUnknownTenant, id)
	}
	if t.err != nil {
		// The live engine never journals for a poisoned tenant, so a
		// record here means journal and state diverged.
		return fmt.Errorf("engine: recover record %d: tenant %q is poisoned but has later records", ord, id)
	}
	if err := fn(t); err != nil {
		if errors.Is(err, errs.ErrTenantPoisoned) {
			return nil
		}
		return err
	}
	return nil
}

// redoRebuild re-applies a journaled circuit-breaker rebuild: the
// tenant's base and tail as of this record (strictly earlier records
// only) go through rebuildTenant exactly as the live probe's did.
func (e *Engine) redoRebuild(id string, ord int, keep, drop int64) error {
	s := e.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[id]
	if !ok {
		return fmt.Errorf("engine: recover record %d: %w: %q", ord, ErrUnknownTenant, id)
	}
	//lint:ignore lockorder recovery is single-threaded and the rebuild must read the journal under the shard lock it mutates under, same as the live probe
	base, tail, err := e.history(t, ord)
	if err != nil {
		return err
	}
	if got := base.Events + int64(len(tail)) - keep; got != drop {
		return fmt.Errorf("engine: recover record %d: rebuild keep=%d drop=%d against base %d + %d tail events",
			ord, keep, drop, base.Events, len(tail))
	}
	//lint:ignore lockorder journal=false: the redo appends nothing, and its replay must run under the shard lock it mutates under, same as the live probe
	if _, err := e.rebuildTenant(t, base, tail, keep, false); err != nil && !errors.Is(err, errs.ErrTenantPoisoned) {
		return fmt.Errorf("engine: recover record %d: %w", ord, err)
	}
	return nil
}

// CanonicalStats renders st as deterministic JSON for byte-for-byte
// comparison across runs: wall-clock-derived fields are cleared —
// ApplyNs and BatchNs (latency samples), the Degrade controller's
// outputs (EffectiveD, DegradeLevel, Degrades), which those latencies
// drive, and BreakerTrips (a failed half-open probe re-trips the
// breaker without leaving a journal record, so the count depends on
// probe timing). Everything else is a pure function of the ingestion
// history, so an uninterrupted run and a crash-recovered one must
// agree exactly.
func CanonicalStats(st TenantStats) []byte {
	st.ApplyNs = 0
	st.BatchNs = nil
	st.EffectiveD = 0
	st.DegradeLevel = 0
	st.Degrades = nil
	st.BreakerTrips = 0
	b, err := json.Marshal(st)
	if err != nil {
		// TenantStats holds only marshalable fields; this cannot fail.
		panic(fmt.Errorf("engine: canonical stats: %w", err))
	}
	return b
}
