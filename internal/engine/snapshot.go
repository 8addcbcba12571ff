// Tenant snapshotting, journal compaction, and O(tail) recovery.
//
// A snapshot (wal.TypeSnapshot) is one self-contained checkpoint of a
// tenant: its rebuild spec, its engine ledger, its queued events, the
// allocator's core.Checkpointable bytes, and — under Config.Audit — the
// invariant checker's own ledger. Self-containment is the point: a
// restored tenant needs nothing from the journal before the snapshot
// record, which yields the two payoffs layered here.
//
//   - Compaction: the engine tracks, per tenant, the segment holding its
//     latest snapshot. Once every tenant's latest snapshot lives in
//     segment ≥ s, segments before s contain only history the snapshots
//     already summarize and are deleted (wal.Log.TruncateBefore). A
//     tenant that has never snapshotted pins the whole log — safety
//     before space.
//
//   - O(tail) recovery: Recover scans the log once to find each tenant's
//     last snapshot (pass 1), then replays (pass 2) skipping every record
//     older than it; the tenant is restored from the snapshot and only
//     the post-snapshot tail is re-applied. RecoveryStats counts the
//     skipped/replayed split so tests can assert the O(tail) claim.
//
// The circuit breaker's half-open probe and recovery's redo of its
// TypeRebuild record rebuild a tenant the same way: restore its base —
// the last snapshot or, with none, its spec — and replay the journaled
// tail up to the safe prefix (journal.go, history and rebuildTenant).
// When the base was a snapshot, a successful probe appends a fresh
// "healing" snapshot right after its TypeRebuild record, so a later
// recovery restores the healed state directly instead of re-deriving it.
//
// MoveTenant rounds the feature out: a snapshot is, operationally, a
// tenant in a box, so rebalancing a tenant onto another engine is
// encode → install → journal a TypeRemove at the source.
package engine

import (
	"encoding/json"
	"fmt"
	"sync"

	"partalloc/internal/core"
	"partalloc/internal/task"
	"partalloc/internal/wal"
)

// tenantSnapshot is the JSON envelope inside a wal.TypeSnapshot record.
// It carries everything Recover needs to rebuild the tenant without
// reading any earlier record: the spec re-creates allocator/faults/host,
// Alloc restores the allocator's exact state, Checker the audit ledger,
// Queue the pending events, and the scalar fields the engine ledger.
// Wall-clock-derived state (ApplyNs, BatchNs, the Degrade ladder) is
// deliberately absent — CanonicalStats clears it, and the breaker's
// rebuild precedent restarts the ladder too.
type tenantSnapshot struct {
	Spec          TenantSpec
	Events        int64
	Batches       int64
	ActiveSize    int64
	MaxActiveSize int64
	PeakLoad      int
	FaultPos      int
	FaultHit      int
	MigHops       int64 `json:",omitempty"`
	ForcedHops    int64 `json:",omitempty"`
	Shed          int64 `json:",omitempty"`
	Dropped       int64 `json:",omitempty"`
	Trips         int   `json:",omitempty"`
	// Shard is the tenant's shard route when the snapshot was taken.
	// Always written (no omitempty — shard 0 is a real route): once
	// compaction deletes the TypeMove records a snapshot supersedes, the
	// envelope is the only surviving carrier of the tenant's route.
	Shard   int
	Queue   []byte // wal.AppendEvents encoding; never empty (count prefix)
	Alloc   []byte // core.Checkpointable bytes
	Checker []byte `json:",omitempty"` // invariant.Checker ledger, Audit only
}

// RecoveryStats reports how Recover reconstructed the engine: how many
// journal records it scanned, how many it skipped because a later
// snapshot already covered them, how many it re-applied, and how many
// snapshots it restored. RecordsSkipped + RecordsReplayed ≤
// RecordsScanned (snapshot records restored at their own ordinal are
// counted in SnapshotsRestored, not RecordsReplayed).
type RecoveryStats struct {
	RecordsScanned    int64
	RecordsSkipped    int64
	RecordsReplayed   int64
	SnapshotsRestored int64
	// MovesReplayed counts TypeMove records re-applied: each one rewrote
	// the recovered routing table (and re-homed the tenant) exactly as
	// the live engine's rebalance did.
	MovesReplayed int64
}

// RecoveryStats returns the ledger of the Recover call that built this
// engine; all-zero for an engine built with New.
func (e *Engine) RecoveryStats() RecoveryStats { return e.recStats }

// trackTenant registers a tenant in the compaction watermark with "no
// snapshot yet", pinning truncation until its first snapshot lands.
func (e *Engine) trackTenant(id string) {
	if e.cfg.Journal == nil {
		return
	}
	e.smu.Lock()
	if _, ok := e.snapSeg[id]; !ok {
		e.snapSeg[id] = -1
	}
	e.smu.Unlock()
}

// untrackTenant drops a tenant from the compaction watermark (MoveTenant).
func (e *Engine) untrackTenant(id string) {
	e.smu.Lock()
	delete(e.snapSeg, id)
	e.smu.Unlock()
}

// encodeTenantSnapshot serializes t's full state. Callers hold the shard
// lock, so the allocator and ledger are frozen.
func (e *Engine) encodeTenantSnapshot(t *tenant) ([]byte, error) {
	if !t.hasSpec {
		return nil, fmt.Errorf("engine: snapshot %q: tenant has no rebuild recipe", t.id)
	}
	ck, ok := t.alloc.(core.Checkpointable)
	if !ok {
		return nil, fmt.Errorf("engine: snapshot %q: allocator %s is not checkpointable", t.id, t.alloc.Name())
	}
	env := tenantSnapshot{
		Spec:          t.spec,
		Events:        t.events,
		Batches:       t.batches,
		ActiveSize:    t.activeSize,
		MaxActiveSize: t.maxActiveSize,
		PeakLoad:      t.peakLoad,
		FaultPos:      t.faultPos,
		FaultHit:      t.faultHit,
		MigHops:       t.migHops,
		ForcedHops:    t.forcedHops,
		Shed:          t.shed,
		Dropped:       t.dropped,
		Trips:         t.trips,
		Shard:         t.shardIdx,
		Queue:         wal.AppendEvents(nil, t.queue),
		Alloc:         ck.Snapshot(),
		Checker:       t.check.Checkpoint(),
	}
	data, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("engine: snapshot %q: %w", t.id, err)
	}
	return data, nil
}

// decodeSnapshot parses a TypeSnapshot envelope. A snapshot always
// carries allocator bytes; a base without them is a bare spec (history).
func decodeSnapshot(data []byte) (*tenantSnapshot, error) {
	env := new(tenantSnapshot)
	if err := json.Unmarshal(data, env); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if len(env.Alloc) == 0 {
		return nil, fmt.Errorf("snapshot of %q holds no allocator state", env.Spec.ID)
	}
	return env, nil
}

// restoreTenant builds a tenant from a base envelope: a fresh allocator
// from Config.Rebuild(spec), then — unless the base is a bare spec, which
// is already the tenant at event 0 — the allocator state restored from
// the snapshot bytes, the checker ledger when auditing, the queue, and
// the engine ledger. A restored tenant starts on rung 0 of its fresh
// degradation ladder, so the allocator's knob is put back on that rung:
// the snapshot carries whatever d and trigger were live when it was
// taken. The caller wires the migration observer (wireObserver) once the
// returned struct has reached its final address.
func (e *Engine) restoreTenant(env *tenantSnapshot) (*tenant, error) {
	id := env.Spec.ID
	a, faults, host, err := e.cfg.Rebuild(env.Spec)
	if err != nil {
		return nil, fmt.Errorf("engine: restore %q: %w", id, err)
	}
	t, err := e.buildTenant(env.Spec, true, a, faults, host)
	if err != nil || env.Alloc == nil {
		return t, err
	}
	ck, ok := a.(core.Checkpointable)
	if !ok {
		return nil, fmt.Errorf("engine: restore %q: allocator %s is not checkpointable", id, a.Name())
	}
	if err := ck.Restore(env.Alloc); err != nil {
		return nil, fmt.Errorf("engine: restore %q: allocator: %w", id, err)
	}
	if t.deg != nil {
		r := t.deg.ladder[0]
		t.deg.da.SetLazyRealloc(r.lazy)
		t.deg.da.SetEffectiveD(r.d)
	}
	if t.check != nil {
		if len(env.Checker) == 0 {
			return nil, fmt.Errorf("engine: restore %q: snapshot has no audit ledger but Config.Audit is on", id)
		}
		if err := t.check.RestoreCheckpoint(env.Checker); err != nil {
			return nil, fmt.Errorf("engine: restore %q: %w", id, err)
		}
	}
	queue, err := wal.DecodeEvents(env.Queue)
	if err != nil {
		return nil, fmt.Errorf("engine: restore %q: queue: %w", id, err)
	}
	if len(queue) > 0 {
		t.queue = queue
	}
	if env.Events < 0 || env.Batches < 0 || env.FaultPos < 0 || env.FaultPos > len(t.faults) {
		return nil, fmt.Errorf("engine: restore %q: inconsistent snapshot ledger", id)
	}
	t.events = env.Events
	t.batches = env.Batches
	t.activeSize = env.ActiveSize
	t.maxActiveSize = env.MaxActiveSize
	t.peakLoad = env.PeakLoad
	t.faultPos = env.FaultPos
	t.faultHit = env.FaultHit
	t.migHops = env.MigHops
	t.forcedHops = env.ForcedHops
	t.shed = env.Shed
	t.dropped = env.Dropped
	t.trips = env.Trips
	t.lastSnapBatch = env.Batches
	return t, nil
}

// loadSnapshot decodes a snapshot envelope and builds the tenant it
// describes (restoreTenant); the caller routes and installs it.
func (e *Engine) loadSnapshot(data []byte) (*tenantSnapshot, *tenant, error) {
	env, err := decodeSnapshot(data)
	if err != nil {
		return nil, nil, err
	}
	t, err := e.restoreTenant(env)
	return env, t, err
}

// maybeSnapshot checkpoints t when the Config.SnapshotEvery cadence is
// due. Called on the live ingestion paths (Submit, Flush, Replay) after
// a successful apply, under the shard lock; never during recovery or a
// breaker rebuild, whose replays go through other entry points.
func (e *Engine) maybeSnapshot(t *tenant) error {
	k := int64(e.cfg.SnapshotEvery)
	if k <= 0 || e.cfg.Journal == nil || !t.hasSpec || t.err != nil {
		return nil
	}
	if t.batches-t.lastSnapBatch < k {
		return nil
	}
	return e.snapshotTenant(t)
}

// snapshotTenant appends a snapshot record for t unconditionally,
// records the segment it landed in, and runs the compaction rule.
// Callers hold the shard lock.
func (e *Engine) snapshotTenant(t *tenant) error {
	data, err := e.encodeTenantSnapshot(t)
	if err != nil {
		return err
	}
	e.jmu.Lock()
	//lint:ignore lockorder jmu serializes all journal writes (see journalAppend); Seg must be read under the same hold, or a rotation from another shard could misattribute the snapshot's segment
	err = e.cfg.Journal.Append(wal.Record{Type: wal.TypeSnapshot, Tenant: t.id, Data: data})
	seg := e.cfg.Journal.Seg()
	e.jmu.Unlock()
	if err != nil {
		return fmt.Errorf("engine: snapshot %q: %w", t.id, err)
	}
	t.lastSnapBatch = t.batches
	t.sink.Snapshot(t.id, len(data), seg)
	e.smu.Lock()
	e.snapSeg[t.id] = seg
	e.smu.Unlock()
	return e.compact()
}

// compact applies the retention rule: delete every segment older than
// all tenants' latest snapshots. A tenant with no snapshot yet (-1)
// blocks truncation entirely — deleting history it still needs would
// make it unrecoverable.
func (e *Engine) compact() error {
	e.smu.Lock()
	min := -1
	for _, seg := range e.snapSeg {
		if seg < 0 {
			e.smu.Unlock()
			return nil
		}
		if min < 0 || seg < min {
			min = seg
		}
	}
	e.smu.Unlock()
	if min <= 1 {
		return nil // nothing older than the first segment
	}
	e.jmu.Lock()
	defer e.jmu.Unlock()
	//lint:ignore lockorder jmu serializes every journal mutation; truncation races with rotation otherwise
	if err := e.cfg.Journal.TruncateBefore(min); err != nil {
		return fmt.Errorf("engine: compact: %w", err)
	}
	return nil
}

// replayChunks applies evs through t in min(BatchSize, MaxQueue)-sized
// chunks — the batch trigger ingest uses, so every path that re-derives
// a tenant from events (rebuildTenant) produces the same batch ledger.
func (e *Engine) replayChunks(t *tenant, evs []task.Event) error {
	trigger := e.cfg.BatchSize
	if e.cfg.MaxQueue > 0 && trigger > e.cfg.MaxQueue {
		trigger = e.cfg.MaxQueue
	}
	for off := 0; off < len(evs); off += trigger {
		end := off + trigger
		if end > len(evs) {
			end = len(evs)
		}
		if err := e.apply(t, evs[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// restoreSnapshot installs a tenant from a TypeSnapshot record during
// recovery. Earlier records of this tenant were skipped (including its
// TypeAddTenant), so the envelope's spec is the registration.
func (e *Engine) restoreSnapshot(ord int, rec wal.Record) error {
	env, t, err := e.loadSnapshot(rec.Data)
	if err != nil {
		return fmt.Errorf("engine: recover record %d: %w", ord, err)
	}
	if env.Spec.ID != rec.Tenant {
		return fmt.Errorf("engine: recover record %d: snapshot spec ID %q does not match tenant %q", ord, env.Spec.ID, rec.Tenant)
	}
	// The envelope carries the tenant's route: compaction may have
	// deleted the TypeMove records that produced it. Out-of-range routes
	// (a journal recovered into a smaller engine) fall back to the hash
	// default.
	idx := env.Shard
	if idx < 0 || idx >= len(e.shards) {
		idx = hashShard(t.id, len(e.shards))
	}
	// A re-restored tenant (two snapshots survive compaction) may have
	// moved between them; drop it from its old stripe first.
	existed := false
	if old := e.route(t.id); old != idx {
		os := e.shardAt(old)
		os.mu.Lock()
		if _, ok := os.tenants[t.id]; ok {
			existed = true
			delete(os.tenants, t.id)
		}
		os.mu.Unlock()
	}
	e.placer.Reroute(t.id, idx)
	t.shardIdx = idx
	s := e.shardAt(idx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[t.id]; ok {
		existed = true
	}
	s.tenants[t.id] = t
	wireObserver(t)
	e.trackTenant(t.id)
	if !existed {
		e.cfg.Sink.TenantRegistered(t.id)
	}
	return nil
}

// removeTenantLocal forgets a tenant (TypeRemove during recovery; a
// no-op when earlier records were already skipped).
func (e *Engine) removeTenantLocal(id string) error {
	s := e.shardFor(id)
	s.mu.Lock()
	delete(s.tenants, id)
	s.mu.Unlock()
	e.placer.Remove(id)
	e.untrackTenant(id)
	return nil
}

// moveMu serializes MoveTenant calls process-wide. A move holds shard
// locks on two engines at once (source while encoding, destination
// while installing); serializing moves is what keeps two concurrent
// opposite-direction moves from deadlocking on each other's shards.
var moveMu sync.Mutex

// MoveTenant extracts tenant id from e and installs it in dst — a
// rebalance with no event replay: the tenant travels as one snapshot.
// The destination journals the snapshot (when it has a journal), then
// the source journals a TypeRemove and forgets the tenant, so each
// engine's log recovers its own post-move view. The tenant must be
// healthy, have a rebuild recipe, and dst must have Config.Rebuild.
//
// The two journals cannot be updated atomically: a crash after the
// destination's append but before the source's leaves the tenant on
// both engines after recovery (at-least-once, never lost). The same
// window is reported as an error when the source append fails.
func (e *Engine) MoveTenant(id string, dst *Engine) error {
	if dst == nil {
		return fmt.Errorf("engine: MoveTenant(%q): nil destination", id)
	}
	if dst == e {
		return fmt.Errorf("engine: MoveTenant(%q): destination is the source engine", id)
	}
	if dst.cfg.Rebuild == nil {
		return fmt.Errorf("engine: MoveTenant(%q): destination has no Config.Rebuild", id)
	}
	moveMu.Lock()
	defer moveMu.Unlock()
	// The source's routing and membership change together; the rebalance
	// mutex keeps the pair atomic with respect to the source's own
	// passes (and freezes the route, so shardFor cannot go stale here).
	e.rebalMu.Lock()
	defer e.rebalMu.Unlock()
	s := e.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	if t.err != nil {
		return fmt.Errorf("engine: MoveTenant(%q): %w: move healthy tenants only: %w", id, ErrTenantPoisoned, t.err)
	}
	data, err := e.encodeTenantSnapshot(t)
	if err != nil {
		return err
	}
	//lint:ignore lockorder the move is a two-journal transaction: the destination's install and the source's removal must happen with the tenant frozen under this shard lock, and moveMu serializes moves so the cross-engine lock pair cannot deadlock
	if err := dst.installSnapshot(data); err != nil {
		return fmt.Errorf("engine: MoveTenant(%q): %w", id, err)
	}
	if e.cfg.Journal != nil {
		//lint:ignore lockorder append-before-apply: the removal record must land before the tenant disappears from this engine (see Submit)
		if err := e.journalAppend(wal.Record{Type: wal.TypeRemove, Tenant: id}); err != nil {
			return fmt.Errorf("engine: MoveTenant(%q): installed at destination but source removal failed (tenant now on both): %w", id, err)
		}
	}
	delete(s.tenants, id)
	e.placer.Remove(id)
	e.untrackTenant(id)
	e.cfg.Sink.TenantMoved(id, "out")
	return nil
}

// installSnapshot decodes a tenant snapshot and registers the tenant on
// this engine, journaling the snapshot first when journaled (so a crash
// right after the move still recovers the tenant here). The tenant is
// placed through this engine's placer — the envelope's Shard field
// describes the source engine's layout — and the envelope is re-sealed
// with the new route before journaling, so this journal recovers the
// tenant onto the shard it actually landed on.
func (e *Engine) installSnapshot(data []byte) error {
	env, t, err := e.loadSnapshot(data)
	if err != nil {
		return fmt.Errorf("engine: install: %w", err)
	}
	id := env.Spec.ID
	e.rebalMu.Lock()
	defer e.rebalMu.Unlock()
	_, routed := e.placer.Lookup(id)
	idx := e.placer.Place(id)
	env.Shard = idx
	data, err = json.Marshal(env)
	if err != nil {
		return fmt.Errorf("engine: install %q: %w", id, err)
	}
	t.shardIdx = idx
	s := e.shardAt(idx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[id]; ok {
		// The pre-existing route belongs to the live tenant; keep it.
		return fmt.Errorf("%w: %q", ErrDuplicateTenant, id)
	}
	if e.cfg.Journal != nil {
		e.jmu.Lock()
		//lint:ignore lockorder jmu serializes all journal writes; Seg is read under the same hold (see snapshotTenant)
		err = e.cfg.Journal.Append(wal.Record{Type: wal.TypeSnapshot, Tenant: id, Data: data})
		seg := e.cfg.Journal.Seg()
		e.jmu.Unlock()
		if err != nil {
			if !routed {
				e.placer.Remove(id)
			}
			return fmt.Errorf("engine: install %q: %w", id, err)
		}
		e.smu.Lock()
		e.snapSeg[id] = seg
		e.smu.Unlock()
		t.sink.Snapshot(id, len(data), seg)
	}
	s.tenants[id] = t
	wireObserver(t)
	e.cfg.Sink.TenantRegistered(id)
	e.cfg.Sink.TenantMoved(id, "in")
	return nil
}
