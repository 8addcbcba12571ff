package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"partalloc/internal/core"
	"partalloc/internal/errs"
	"partalloc/internal/fault"
	"partalloc/internal/sim"
	"partalloc/internal/task"
	"partalloc/internal/tree"
	"partalloc/internal/workload"
)

// tenantOpts converts a possibly-nil schedule into the options-form
// AddTenant arguments used throughout the tables below.
func tenantOpts(s *fault.Schedule) []TenantOption {
	if s == nil {
		return nil
	}
	return []TenantOption{WithTenantFaults(s)}
}

// testTenant pairs a tenant ID with a factory so the engine and the
// serial reference each get a fresh allocator of the same configuration.
type testTenant struct {
	id     string
	make   func(m *tree.Machine) core.Allocator
	n      int
	faults *fault.Schedule
}

func testFleet(t *testing.T) []testTenant {
	t.Helper()
	sched := fault.Random(fault.RandomConfig{N: 64, Events: 1500, Failures: 3, Seed: 7})
	return []testTenant{
		{id: "acme", n: 64, make: func(m *tree.Machine) core.Allocator { return core.NewBasic(m) }},
		{id: "burrow", n: 64, make: func(m *tree.Machine) core.Allocator { return core.NewPeriodic(m, 2, core.DecreasingSize) }},
		{id: "corvid", n: 32, make: func(m *tree.Machine) core.Allocator { return core.NewLazy(m, 1, core.DecreasingSize) }},
		{id: "dynamo", n: 128, make: func(m *tree.Machine) core.Allocator { return core.NewRandom(m, 42) }},
		{id: "ember", n: 64, make: func(m *tree.Machine) core.Allocator { return core.NewGreedy(m) }},
		{id: "fjord", n: 64, make: func(m *tree.Machine) core.Allocator { return core.NewPeriodic(m, 3, core.DecreasingSize) }, faults: &sched},
	}
}

func testStream(n, arrivals int, seed int64) []task.Event {
	return workload.Poisson(workload.Config{N: n, Arrivals: arrivals, Seed: seed}).Events
}

// TestReplayMatchesSerialSimulate is the engine-level equivalence gate:
// batched, sharded ingestion must leave every tenant's allocator in the
// exact state a serial sim.Run pass produces — same PE loads, same
// MaxLoad, same active set, same ReallocStats, same fault count.
func TestReplayMatchesSerialSimulate(t *testing.T) {
	for _, batch := range []int{1, 97, 256} {
		fleet := testFleet(t)
		eng := New(Config{Shards: 3, BatchSize: batch})
		streams := make(map[string][]task.Event)
		engAllocs := make(map[string]core.Allocator)
		for i, tt := range fleet {
			m := tree.MustNew(tt.n)
			a := tt.make(m)
			engAllocs[tt.id] = a
			if err := eng.AddTenant(tt.id, a, tenantOpts(tt.faults)...); err != nil {
				t.Fatal(err)
			}
			streams[tt.id] = testStream(tt.n, 700+50*i, int64(i+1))
		}

		if err := eng.Replay(context.Background(), streams); err != nil {
			t.Fatalf("batch %d: Replay: %v", batch, err)
		}

		for _, tt := range fleet {
			ref := tt.make(tree.MustNew(tt.n))
			var opt sim.Options
			if tt.faults != nil {
				opt.Faults = tt.faults.Source()
			}
			want := sim.Run(ref, task.Sequence{Events: streams[tt.id]}, opt)

			st, err := eng.TenantStats(tt.id)
			if err != nil {
				t.Fatal(err)
			}
			if st.Events != int64(len(streams[tt.id])) {
				t.Errorf("batch %d, %s: applied %d of %d events", batch, tt.id, st.Events, len(streams[tt.id]))
			}
			if got := engAllocs[tt.id].PELoads(); !reflect.DeepEqual(got, ref.PELoads()) {
				t.Errorf("batch %d, %s: engine PE loads diverge from serial run", batch, tt.id)
			}
			if st.MaxLoad != want.FinalLoad {
				t.Errorf("batch %d, %s: MaxLoad = %d, serial FinalLoad = %d", batch, tt.id, st.MaxLoad, want.FinalLoad)
			}
			if st.LStar != want.LStar {
				t.Errorf("batch %d, %s: LStar = %d, want %d", batch, tt.id, st.LStar, want.LStar)
			}
			if st.Active != ref.Active() {
				t.Errorf("batch %d, %s: Active = %d, want %d", batch, tt.id, st.Active, ref.Active())
			}
			if !reflect.DeepEqual(st.Realloc, want.Realloc) {
				t.Errorf("batch %d, %s: ReallocStats = %+v, want %+v", batch, tt.id, st.Realloc, want.Realloc)
			}
			if st.FaultEvents != want.FaultEvents {
				t.Errorf("batch %d, %s: FaultEvents = %d, want %d", batch, tt.id, st.FaultEvents, want.FaultEvents)
			}
			// With single-event batches the boundary samples see every
			// state, so the engine's peak must equal the serial peak.
			if batch == 1 && st.PeakLoad != want.MaxLoad {
				t.Errorf("%s: per-event PeakLoad = %d, serial MaxLoad = %d", tt.id, st.PeakLoad, want.MaxLoad)
			}
		}
	}
}

// TestSubmitMatchesReplay feeds the same streams through the incremental
// Submit path (odd-sized chunks, so queue boundaries and batch boundaries
// disagree) and requires the same final state as a one-shot Replay.
func TestSubmitMatchesReplay(t *testing.T) {
	fleet := testFleet(t)
	a := New(Config{Shards: 2, BatchSize: 64})
	b := New(Config{Shards: 5, BatchSize: 256})
	streams := make(map[string][]task.Event)
	aAllocs := make(map[string]core.Allocator)
	bAllocs := make(map[string]core.Allocator)
	for i, tt := range fleet {
		aAllocs[tt.id] = tt.make(tree.MustNew(tt.n))
		bAllocs[tt.id] = tt.make(tree.MustNew(tt.n))
		if err := a.AddTenant(tt.id, aAllocs[tt.id], tenantOpts(tt.faults)...); err != nil {
			t.Fatal(err)
		}
		if err := b.AddTenant(tt.id, bAllocs[tt.id], tenantOpts(tt.faults)...); err != nil {
			t.Fatal(err)
		}
		streams[tt.id] = testStream(tt.n, 600, int64(i+10))
	}

	for _, tt := range fleet {
		evs := streams[tt.id]
		for off := 0; off < len(evs); off += 17 {
			end := off + 17
			if end > len(evs) {
				end = len(evs)
			}
			if err := a.Submit(tt.id, evs[off:end]...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := b.Replay(context.Background(), streams); err != nil {
		t.Fatal(err)
	}

	for _, tt := range fleet {
		if !reflect.DeepEqual(aAllocs[tt.id].PELoads(), bAllocs[tt.id].PELoads()) {
			t.Errorf("%s: Submit path and Replay path disagree on PE loads", tt.id)
		}
		sa, _ := a.TenantStats(tt.id)
		sb, _ := b.TenantStats(tt.id)
		if sa.Events != sb.Events || sa.MaxLoad != sb.MaxLoad || !reflect.DeepEqual(sa.Realloc, sb.Realloc) {
			t.Errorf("%s: Submit stats %+v disagree with Replay stats %+v", tt.id, sa, sb)
		}
	}
}

// TestAuditModeCleanRun checks that the per-shard invariant audit passes
// on healthy algorithms and still matches the serial reference.
func TestAuditModeCleanRun(t *testing.T) {
	fleet := testFleet(t)
	eng := New(Config{Shards: 2, BatchSize: 128, Audit: true})
	streams := make(map[string][]task.Event)
	for i, tt := range fleet {
		if err := eng.AddTenant(tt.id, tt.make(tree.MustNew(tt.n)), tenantOpts(tt.faults)...); err != nil {
			t.Fatal(err)
		}
		streams[tt.id] = testStream(tt.n, 400, int64(i+20))
	}
	if err := eng.Replay(context.Background(), streams); err != nil {
		t.Fatal(err)
	}
	for _, st := range eng.Stats() {
		if len(st.Violations) != 0 {
			t.Errorf("%s: audit found %d violations; first: %v", st.Tenant, len(st.Violations), st.Violations[0])
		}
		if st.Events == 0 {
			t.Errorf("%s: no events applied under audit", st.Tenant)
		}
	}
}

// TestPoisoningSurfacesSentinels drives a tenant into capacity exhaustion
// and checks that the allocator's ErrMachineFull panic comes back as a
// returned error chain — ErrTenantPoisoned wrapping the sentinel — and
// that the tenant stays poisoned afterwards.
func TestPoisoningSurfacesSentinels(t *testing.T) {
	eng := New(Config{BatchSize: 4})
	m := tree.MustNew(2)
	sched := &fault.Schedule{Events: []fault.Event{
		{At: 0, Kind: fault.FailPE, PE: 0},
		{At: 0, Kind: fault.FailPE, PE: 1},
	}}
	if err := eng.AddTenant("doomed", core.NewBasic(m), WithTenantFaults(sched)); err != nil {
		t.Fatal(err)
	}

	err := eng.Replay(context.Background(), map[string][]task.Event{
		"doomed": {{Kind: task.Arrive, Task: 1, Size: 1}},
	})
	if !errors.Is(err, ErrTenantPoisoned) {
		t.Fatalf("Replay error %v is not ErrTenantPoisoned", err)
	}
	if !errors.Is(err, errs.ErrMachineFull) {
		t.Fatalf("Replay error %v does not wrap ErrMachineFull", err)
	}

	// Every later operation reports the same poisoned state and cause.
	if err := eng.Submit("doomed", task.Event{Kind: task.Arrive, Task: 2, Size: 1}); !errors.Is(err, ErrTenantPoisoned) || !errors.Is(err, errs.ErrMachineFull) {
		t.Errorf("Submit after poisoning: %v", err)
	}
	if err := eng.Err("doomed"); !errors.Is(err, errs.ErrMachineFull) {
		t.Errorf("Err after poisoning: %v", err)
	}
	// The rest of the engine keeps working.
	if err := eng.AddTenant("healthy", core.NewBasic(tree.MustNew(8))); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit("healthy", task.Event{Kind: task.Arrive, Task: 1, Size: 2}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush("healthy"); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateArrivalPoisons checks the misuse path: a duplicate task ID
// panic becomes ErrDuplicateTask on the error chain.
func TestDuplicateArrivalPoisons(t *testing.T) {
	eng := New(Config{BatchSize: 8})
	if err := eng.AddTenant("t", core.NewGreedy(tree.MustNew(8))); err != nil {
		t.Fatal(err)
	}
	err := eng.Replay(context.Background(), map[string][]task.Event{"t": {
		{Kind: task.Arrive, Task: 1, Size: 2},
		{Kind: task.Arrive, Task: 1, Size: 2},
	}})
	if !errors.Is(err, ErrTenantPoisoned) || !errors.Is(err, errs.ErrDuplicateTask) {
		t.Errorf("duplicate arrival error chain = %v", err)
	}
}

func TestTenantRegistry(t *testing.T) {
	eng := New(Config{})
	m := tree.MustNew(4)
	if err := eng.AddTenant("a", core.NewBasic(m)); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddTenant("a", core.NewBasic(m)); !errors.Is(err, ErrDuplicateTenant) {
		t.Errorf("duplicate AddTenant: %v", err)
	}
	if err := eng.Submit("ghost"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("Submit to unknown tenant: %v", err)
	}
	if _, err := eng.TenantStats("ghost"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("TenantStats of unknown tenant: %v", err)
	}
	if err := eng.Replay(context.Background(), map[string][]task.Event{"ghost": nil}); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("Replay of unknown tenant: %v", err)
	}
	if err := eng.AddTenant("nil", nil); err == nil {
		t.Error("nil allocator accepted")
	}
	sched := &fault.Schedule{Events: []fault.Event{{At: 0, Kind: fault.FailPE, PE: 0}}}
	if err := eng.AddTenant("rand", core.NewRandom(m, 1), WithTenantFaults(sched)); err == nil {
		t.Error("fault schedule accepted on a non-fault-tolerant allocator")
	}
	want := []string{"a"}
	if got := eng.Tenants(); !reflect.DeepEqual(got, want) {
		t.Errorf("Tenants() = %v, want %v", got, want)
	}
}

// TestReplayContextCancellation checks that a pre-cancelled context stops
// the replay before any event is applied and reports ctx.Err().
func TestReplayContextCancellation(t *testing.T) {
	eng := New(Config{BatchSize: 32})
	if err := eng.AddTenant("t", core.NewBasic(tree.MustNew(16))); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := eng.Replay(ctx, map[string][]task.Event{"t": testStream(16, 500, 1)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Replay with cancelled context: %v", err)
	}
	st, _ := eng.TenantStats("t")
	if st.Events != 0 {
		t.Errorf("applied %d events under a pre-cancelled context", st.Events)
	}
}
