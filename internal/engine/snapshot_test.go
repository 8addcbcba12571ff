package engine

import (
	"bytes"
	"context"
	"errors"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"partalloc/internal/core"
	"partalloc/internal/fault"
	"partalloc/internal/task"
	"partalloc/internal/tree"
	"partalloc/internal/wal"
)

// walSegments lists the journal's segment indexes in dir, ascending.
func walSegments(t *testing.T, dir string) []int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var idx []int
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".wal") {
			i, err := strconv.Atoi(strings.TrimSuffix(ent.Name(), ".wal"))
			if err != nil {
				t.Fatalf("unexpected journal file %q", ent.Name())
			}
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	return idx
}

// TestSnapshotRecoverMatchesUninterrupted is the snapshot analogue of
// TestRecoverMatchesUninterrupted: an engine snapshotting every 2
// batches — mixed algorithms, fault schedules, audit on, queued
// remainders — must recover with byte-identical CanonicalStats, while
// actually restoring from snapshots rather than replaying history.
func TestSnapshotRecoverMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 3, BatchSize: 16, Audit: true, Journal: log, Rebuild: testRebuild, SnapshotEvery: 2}
	eng := New(cfg)

	var sched bytes.Buffer
	fs := fault.Random(fault.RandomConfig{N: 64, Events: 300, Failures: 2, Seed: 5})
	if err := fault.WriteText(&sched, fs); err != nil {
		t.Fatal(err)
	}
	addSpecTenant(t, eng, TenantSpec{ID: "alpha", Algorithm: "basic", N: 16})
	addSpecTenant(t, eng, TenantSpec{ID: "perry", Algorithm: "periodic", N: 64, D: 2, DSet: true, Faults: sched.String()})
	addSpecTenant(t, eng, TenantSpec{ID: "rand", Algorithm: "random", N: 32, Seed: 42, SeedSet: true})
	addSpecTenant(t, eng, TenantSpec{ID: "lazy1", Algorithm: "lazy", N: 32, D: 1, DSet: true})

	for _, ev := range testStream(16, 300, 1) {
		if err := eng.Submit("alpha", ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Replay(context.Background(), map[string][]task.Event{"perry": testStream(64, 300, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit("rand", testStream(32, 200, 7)...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit("lazy1", testStream(32, 100, 3)...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush("lazy1"); err != nil {
		t.Fatal(err)
	}

	want := eng.Stats()
	for _, st := range want {
		if len(st.Violations) != 0 {
			t.Fatalf("%s: live audit violations: %v", st.Tenant, st.Violations)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(Config{Shards: 3, BatchSize: 16, Audit: true, Rebuild: testRebuild, SnapshotEvery: 2}, dir, wal.Options{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.cfg.Journal.Close()
	got := rec.Stats()
	if len(got) != len(want) {
		t.Fatalf("recovered %d tenants, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := CanonicalStats(want[i]), CanonicalStats(got[i])
		if !bytes.Equal(w, g) {
			t.Errorf("%s: recovered stats diverge:\n  live: %s\n  rec:  %s", want[i].Tenant, w, g)
		}
	}
	rs := rec.RecoveryStats()
	if rs.SnapshotsRestored != 4 {
		t.Errorf("SnapshotsRestored = %d, want 4 (one per tenant)", rs.SnapshotsRestored)
	}
	if rs.RecordsSkipped == 0 {
		t.Error("RecordsSkipped = 0: recovery replayed history a snapshot already covers")
	}
	if rs.RecordsReplayed >= rs.RecordsSkipped {
		t.Errorf("RecordsReplayed = %d ≥ RecordsSkipped = %d: recovery is not O(tail)", rs.RecordsReplayed, rs.RecordsSkipped)
	}
}

// TestRecoveryReadsOnlyTail pins the O(tail) claim to exact counts: with
// a snapshot as the journal's last per-tenant record, recovery replays
// zero records; two trailing submits later, it replays exactly those two.
func TestRecoveryReadsOnlyTail(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 1, BatchSize: 4, Journal: log, Rebuild: testRebuild, SnapshotEvery: 1}
	eng := New(cfg)
	addSpecTenant(t, eng, TenantSpec{ID: "t", Algorithm: "greedy", N: 16})

	// 20 single-event submits: every 4th triggers a batch apply followed
	// by a snapshot, so the journal ends ... S S S S Snap.
	for _, ev := range arrivals(1, 20, 1) {
		if err := eng.Submit("t", ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(Config{Shards: 1, BatchSize: 4, Rebuild: testRebuild}, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs := rec.RecoveryStats()
	// 1 AddTenant + 20 Submits + 5 Snapshots = 26 records; the snapshot
	// at ordinal 25 covers the other 25.
	if rs.RecordsScanned != 26 || rs.RecordsReplayed != 0 || rs.RecordsSkipped != 25 || rs.SnapshotsRestored != 1 {
		t.Fatalf("RecoveryStats = %+v, want scanned 26, replayed 0, skipped 25, restored 1", rs)
	}

	// Two more submits after the snapshot: exactly those two replay.
	for _, ev := range arrivals(1_000, 2, 1) {
		if err := rec.Submit("t", ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.cfg.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, err := Recover(Config{Shards: 1, BatchSize: 4, Rebuild: testRebuild}, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.cfg.Journal.Close()
	rs = rec2.RecoveryStats()
	if rs.RecordsReplayed != 2 || rs.SnapshotsRestored != 1 {
		t.Fatalf("after tail submits: RecoveryStats = %+v, want replayed 2, restored 1", rs)
	}
	w, _ := rec.TenantStats("t")
	g, _ := rec2.TenantStats("t")
	if !bytes.Equal(CanonicalStats(w), CanonicalStats(g)) {
		t.Errorf("tail recovery diverges:\n  live: %s\n  rec:  %s", CanonicalStats(w), CanonicalStats(g))
	}
}

// TestSnapshotCompactionBoundsLog drives a snapshotting engine across
// many small segments: old segments must be deleted as snapshots make
// them redundant, the directory must not grow without bound, and the
// compacted log must still recover to the live state.
func TestSnapshotCompactionBoundsLog(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 2, BatchSize: 8, Journal: log, Rebuild: testRebuild, SnapshotEvery: 2}
	eng := New(cfg)
	addSpecTenant(t, eng, TenantSpec{ID: "a", Algorithm: "greedy", N: 16})
	addSpecTenant(t, eng, TenantSpec{ID: "b", Algorithm: "basic", N: 16})

	maxSegs := 0
	for i := 0; i < 40; i++ {
		if err := eng.Submit("a", testStream(16, 16, int64(i))...); err != nil {
			t.Fatal(err)
		}
		if err := eng.Submit("b", testStream(16, 16, int64(100+i))...); err != nil {
			t.Fatal(err)
		}
		if n := len(walSegments(t, dir)); n > maxSegs {
			maxSegs = n
		}
	}
	segs := walSegments(t, dir)
	if segs[0] == 1 {
		t.Errorf("segment 1 still present after %d snapshots: compaction never ran", 40)
	}
	// Each round appends ~2 snapshots + 2 submit records across 1KiB
	// segments; without truncation the directory would hold dozens of
	// segments. The bound is loose on purpose — the claim is "bounded",
	// not an exact count.
	if maxSegs > 12 {
		t.Errorf("journal grew to %d segments despite compaction", maxSegs)
	}

	want := eng.Stats()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(Config{Shards: 2, BatchSize: 8, Rebuild: testRebuild}, dir, wal.Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatalf("Recover from compacted log: %v", err)
	}
	defer rec.cfg.Journal.Close()
	got := rec.Stats()
	for i := range want {
		if w, g := CanonicalStats(want[i]), CanonicalStats(got[i]); !bytes.Equal(w, g) {
			t.Errorf("%s: recovered stats diverge after compaction:\n  live: %s\n  rec:  %s", want[i].Tenant, w, g)
		}
	}
}

// TestSnapshotPinsLogUntilEveryTenantSnapshots: a tenant that has never
// snapshotted still needs its full history, so compaction must hold.
func TestSnapshotPinsLogUntilEveryTenantSnapshots(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	cfg := Config{Shards: 2, BatchSize: 8, Journal: log, Rebuild: testRebuild, SnapshotEvery: 2}
	eng := New(cfg)
	addSpecTenant(t, eng, TenantSpec{ID: "busy", Algorithm: "greedy", N: 16})
	addSpecTenant(t, eng, TenantSpec{ID: "idle", Algorithm: "basic", N: 16})

	for i := 0; i < 20; i++ {
		if err := eng.Submit("busy", testStream(16, 16, int64(i))...); err != nil {
			t.Fatal(err)
		}
	}
	if segs := walSegments(t, dir); segs[0] != 1 {
		t.Fatalf("segment 1 deleted while tenant %q has no snapshot", "idle")
	}
	// One batch for the idle tenant reaches its cadence; the pin lifts.
	if err := eng.Submit("idle", testStream(16, 32, 99)...); err != nil {
		t.Fatal(err)
	}
	if segs := walSegments(t, dir); segs[0] == 1 {
		t.Errorf("compaction still pinned after every tenant snapshotted (segments %v)", segs)
	}
}

// TestBreakerProbeRestoresFromSnapshot poisons a tenant that has
// journaled snapshots: the half-open probe must restore the last
// pre-poison snapshot, replay the tail, append a healing snapshot, and
// leave the tenant byte-identical to a never-poisoned reference — and a
// crash right after must recover the healed ledger exactly.
func TestBreakerProbeRestoresFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 1, BatchSize: 4, Journal: log, Rebuild: testRebuild, SnapshotEvery: 2}
	eng := New(cfg)
	clk := &fakeClock{step: 1}
	eng.now = clk.tick
	addSpecTenant(t, eng, TenantSpec{ID: "t", Algorithm: "greedy", N: 8})

	// 8 events = 2 batches: a snapshot lands at the cadence.
	if err := eng.Submit("t", arrivals(1, 8, 1)...); err != nil {
		t.Fatal(err)
	}
	// Two more applied events after the snapshot — the probe must replay
	// this tail on top of the restored snapshot, not lose it.
	if err := eng.Submit("t", arrivals(9, 2, 1)...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush("t"); err != nil {
		t.Fatal(err)
	}
	bad := []task.Event{{Kind: task.Arrive, Task: 5, Size: 1}} // duplicate ID
	if err := eng.Submit("t", bad...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush("t"); !errors.Is(err, ErrTenantPoisoned) {
		t.Fatalf("poisoning flush: %v", err)
	}

	clk.advance(time.Hour)
	if err := eng.Submit("t", arrivals(11, 4, 1)...); err != nil {
		t.Fatalf("submit after backoff (probe): %v", err)
	}
	st, _ := eng.TenantStats("t")
	if st.BreakerState != "closed" || st.Events != 14 || st.DroppedEvents != 1 {
		t.Fatalf("after snapshot probe: state=%s events=%d dropped=%d, want closed/14/1",
			st.BreakerState, st.Events, st.DroppedEvents)
	}

	// The healed allocator equals a never-poisoned run of the kept events.
	ref := core.NewGreedy(tree.MustNew(8))
	core.ApplyEvents(ref, arrivals(1, 8, 1))
	core.ApplyEvents(ref, arrivals(9, 2, 1))
	core.ApplyEvents(ref, arrivals(11, 4, 1))
	s := eng.shardFor("t")
	s.mu.Lock()
	got := s.tenants["t"].alloc.PELoads()
	s.mu.Unlock()
	if !reflect.DeepEqual(got, ref.PELoads()) {
		t.Errorf("healed PE loads %v, reference %v", got, ref.PELoads())
	}

	// Crash now: recovery restores the healing snapshot (skipping the
	// poisonous suffix and the rebuild), matching the live ledger.
	want := eng.Stats()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(Config{Shards: 1, BatchSize: 4, Rebuild: testRebuild, SnapshotEvery: 2}, dir, wal.Options{})
	if err != nil {
		t.Fatalf("Recover after heal: %v", err)
	}
	defer rec.cfg.Journal.Close()
	gotStats := rec.Stats()
	if w, g := CanonicalStats(want[0]), CanonicalStats(gotStats[0]); !bytes.Equal(w, g) {
		t.Errorf("post-heal recovery diverges:\n  live: %s\n  rec:  %s", w, g)
	}
}

// TestMoveTenant rebalances a tenant (with a queued remainder) onto a
// second engine: the ledger survives byte-for-byte, the source forgets
// it, and each engine's journal recovers its own post-move view.
func TestMoveTenant(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	srcLog, err := wal.Open(srcDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dstLog, err := wal.Open(dstDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := New(Config{Shards: 2, BatchSize: 8, Journal: srcLog, Rebuild: testRebuild, SnapshotEvery: 4})
	dst := New(Config{Shards: 2, BatchSize: 8, Journal: dstLog, Rebuild: testRebuild, SnapshotEvery: 4})
	addSpecTenant(t, src, TenantSpec{ID: "mover", Algorithm: "periodic", N: 16, D: 1, DSet: true})
	addSpecTenant(t, src, TenantSpec{ID: "stayer", Algorithm: "basic", N: 16})

	if err := src.Submit("mover", testStream(16, 100, 4)...); err != nil {
		t.Fatal(err)
	}
	if err := src.Submit("stayer", testStream(16, 50, 5)...); err != nil {
		t.Fatal(err)
	}
	before, _ := src.TenantStats("mover")

	if err := src.MoveTenant("mover", dst); err != nil {
		t.Fatalf("MoveTenant: %v", err)
	}
	if err := src.Submit("mover", arrivals(1, 1, 1)...); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("source still knows the moved tenant: %v", err)
	}
	after, _ := dst.TenantStats("mover")
	if w, g := CanonicalStats(before), CanonicalStats(after); !bytes.Equal(w, g) {
		t.Fatalf("move changed the ledger:\n  before: %s\n  after:  %s", w, g)
	}
	// The moved tenant keeps ingesting at its new home.
	if err := dst.Submit("mover", testStream(16, 40, 6)...); err != nil {
		t.Fatalf("submit at destination: %v", err)
	}

	srcWant := src.Stats()
	dstWant := dst.Stats()
	if err := srcLog.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dstLog.Close(); err != nil {
		t.Fatal(err)
	}

	srcRec, err := Recover(Config{Shards: 2, BatchSize: 8, Rebuild: testRebuild}, srcDir, wal.Options{})
	if err != nil {
		t.Fatalf("source recover: %v", err)
	}
	defer srcRec.cfg.Journal.Close()
	if ids := srcRec.Tenants(); len(ids) != 1 || ids[0] != "stayer" {
		t.Fatalf("source recovered tenants %v, want [stayer]", ids)
	}
	for i, st := range srcRec.Stats() {
		if w, g := CanonicalStats(srcWant[i]), CanonicalStats(st); !bytes.Equal(w, g) {
			t.Errorf("source %s: recovered stats diverge", st.Tenant)
		}
	}

	dstRec, err := Recover(Config{Shards: 2, BatchSize: 8, Rebuild: testRebuild}, dstDir, wal.Options{})
	if err != nil {
		t.Fatalf("destination recover: %v", err)
	}
	defer dstRec.cfg.Journal.Close()
	if ids := dstRec.Tenants(); len(ids) != 1 || ids[0] != "mover" {
		t.Fatalf("destination recovered tenants %v, want [mover]", ids)
	}
	for i, st := range dstRec.Stats() {
		if w, g := CanonicalStats(dstWant[i]), CanonicalStats(st); !bytes.Equal(w, g) {
			t.Errorf("destination %s: recovered stats diverge:\n  live: %s\n  rec:  %s", st.Tenant, w, g)
		}
	}

	// Misuse surfaces as errors, not corruption.
	if err := src.MoveTenant("stayer", src); err == nil {
		t.Error("MoveTenant onto the source engine succeeded")
	}
	if err := src.MoveTenant("ghost", dst); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("MoveTenant(ghost) = %v, want ErrUnknownTenant", err)
	}
}

// TestRecoverRebuildFromSnapshotBase crashes the
// TestBreakerProbeRestoresFromSnapshot scenario between the probe's
// TypeRebuild record and its healing snapshot: the journal is copied
// without that snapshot, so recovery must redo the rebuild itself from
// the tenant's earlier snapshot plus the journaled tail, and still match
// the live ledger byte for byte.
func TestRecoverRebuildFromSnapshotBase(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 1, BatchSize: 4, Journal: log, Rebuild: testRebuild, SnapshotEvery: 2}
	eng := New(cfg)
	clk := &fakeClock{step: 1}
	eng.now = clk.tick
	addSpecTenant(t, eng, TenantSpec{ID: "t", Algorithm: "greedy", N: 8})

	if err := eng.Submit("t", arrivals(1, 8, 1)...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit("t", arrivals(9, 2, 1)...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush("t"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit("t", task.Event{Kind: task.Arrive, Task: 5, Size: 1}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush("t"); !errors.Is(err, ErrTenantPoisoned) {
		t.Fatalf("poisoning flush: %v", err)
	}
	clk.advance(time.Hour)
	if err := eng.Submit("t", arrivals(11, 4, 1)...); err != nil {
		t.Fatalf("submit after backoff (probe): %v", err)
	}
	want := eng.Stats()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Copy the journal minus the healing snapshot: the first TypeSnapshot
	// after the TypeRebuild record.
	crashDir := t.TempDir()
	clog, err := wal.Open(crashDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, healed := false, false
	if err := wal.Replay(dir, func(_ int, rec wal.Record) error {
		switch {
		case rec.Type == wal.TypeRebuild:
			rebuilt = true
		case rebuilt && !healed && rec.Type == wal.TypeSnapshot:
			healed = true
			return nil
		}
		return clog.Append(rec)
	}); err != nil {
		t.Fatal(err)
	}
	if err := clog.Close(); err != nil {
		t.Fatal(err)
	}
	if !healed {
		t.Fatal("live journal has no healing snapshot after its TypeRebuild record")
	}

	rec, err := Recover(Config{Shards: 1, BatchSize: 4, Rebuild: testRebuild, SnapshotEvery: 2}, crashDir, wal.Options{})
	if err != nil {
		t.Fatalf("Recover without the healing snapshot: %v", err)
	}
	defer rec.cfg.Journal.Close()
	got := rec.Stats()
	if len(got) != 1 {
		t.Fatalf("recovered %d tenants, want 1", len(got))
	}
	if w, g := CanonicalStats(want[0]), CanonicalStats(got[0]); !bytes.Equal(w, g) {
		t.Errorf("recovery through the rebuild redo diverges:\n  live: %s\n  rec:  %s", w, g)
	}
	// Journal: AddTenant, Submit(8), Snapshot, Submit(2), Flush, Submit(1),
	// Flush, Rebuild, Submit(4). The snapshot covers the first two; the
	// six records after it replay, the rebuild among them.
	rs := rec.RecoveryStats()
	if rs.RecordsScanned != 9 || rs.RecordsSkipped != 2 || rs.RecordsReplayed != 6 || rs.SnapshotsRestored != 1 {
		t.Errorf("RecoveryStats = %+v, want scanned 9, skipped 2, replayed 6, restored 1", rs)
	}
}
