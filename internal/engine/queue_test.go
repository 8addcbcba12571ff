package engine

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"partalloc/internal/core"
	"partalloc/internal/errs"
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// TestSteadySubmitReusesQueue pins the queue's steady state: once warm, a
// tenant's queue refills the one array it keeps, so 32-event Submits
// (smaller than a batch) on an A_Rand tenant allocate nothing per batch. The count comes
// from runtime.MemStats over the whole run; AllocsPerRun would round a
// fraction of a malloc per Submit down to zero.
func TestSteadySubmitReusesQueue(t *testing.T) {
	const chunk, submits = 32, 1024
	evs := testStream(1024, chunk*submits, 3) // two events per arrival
	eng := New(Config{Shards: 1})
	if err := eng.AddTenant("r", core.NewRandom(tree.MustNew(1024), 1)); err != nil {
		t.Fatal(err)
	}
	submit := func(evs []task.Event) {
		for lo := 0; lo < len(evs); lo += chunk {
			if err := eng.Submit("r", evs[lo:lo+chunk]...); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm, measured := evs[:len(evs)/2], evs[len(evs)/2:]
	submit(warm)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	submit(measured)
	runtime.ReadMemStats(&ms1)
	mallocs := ms1.Mallocs - ms0.Mallocs
	t.Logf("%d Submits of %d events: %d mallocs, %d bytes",
		len(measured)/chunk, chunk, mallocs, ms1.TotalAlloc-ms0.TotalAlloc)
	if mallocs > 8 {
		t.Errorf("%d steady-state Submits made %d mallocs, want ≤ 8", len(measured)/chunk, mallocs)
	}
}

// TestQueueCarriesLeftover submits uneven chunks, some larger than a
// batch, with and without a MaxQueue below BatchSize. Events left over
// after a batch stay queued, in order, for the next one: after every
// Submit the tenant reports exactly the batches a FIFO queue would have
// applied and queues the rest, and its loads match a serial run of the
// applied prefix.
func TestQueueCarriesLeftover(t *testing.T) {
	sizes := []int{17, 200, 5, 64, 32, 1, 99}
	for _, tc := range []struct {
		name    string
		cfg     Config
		trigger int
	}{
		{"unbounded", Config{Shards: 1, BatchSize: 64}, 64},
		{"block-below-batch", Config{Shards: 1, BatchSize: 256, MaxQueue: 48, Overload: Block}, 48},
	} {
		t.Run(tc.name, func(t *testing.T) {
			evs := testStream(64, 600, 5)
			eng := New(tc.cfg)
			alloc := core.NewRandom(tree.MustNew(64), 7)
			if err := eng.AddTenant("r", alloc); err != nil {
				t.Fatal(err)
			}
			sent := 0
			for i := 0; sent < len(evs); i++ {
				end := min(sent+sizes[i%len(sizes)], len(evs))
				if err := eng.Submit("r", evs[sent:end]...); err != nil {
					t.Fatal(err)
				}
				sent = end
				st, err := eng.TenantStats("r")
				if err != nil {
					t.Fatal(err)
				}
				applied := sent / tc.trigger * tc.trigger
				if st.Events != int64(applied) || st.Queued != sent-applied || st.Batches != int64(sent/tc.trigger) {
					t.Fatalf("after %d events: Events %d Queued %d Batches %d, want %d, %d and %d",
						sent, st.Events, st.Queued, st.Batches, applied, sent-applied, sent/tc.trigger)
				}
			}
			st, _ := eng.TenantStats("r")
			ref := core.NewRandom(tree.MustNew(64), 7)
			core.ApplyEvents(ref, evs[:st.Events])
			if !reflect.DeepEqual(alloc.PELoads(), ref.PELoads()) || st.MaxLoad != ref.MaxLoad() || st.Active != ref.Active() {
				t.Errorf("engine state after %d applied events differs from a serial run of them", st.Events)
			}
		})
	}
}

// TestPoisonDropsQueue poisons a tenant with a batch that carries events
// queued by earlier Submits. The poisoned tenant reports nothing queued
// and only the batches applied before the poisoning one.
func TestPoisonDropsQueue(t *testing.T) {
	eng := New(Config{Shards: 1, BatchSize: 8})
	if err := eng.AddTenant("r", core.NewRandom(tree.MustNew(8), 1)); err != nil {
		t.Fatal(err)
	}
	arrive := func(id task.ID) task.Event { return task.Event{Kind: task.Arrive, Task: id, Size: 1} }
	// One clean batch of 8 with 2 left over, then a duplicate arrival in
	// the second batch.
	if err := eng.Submit("r", arrive(1), arrive(2), arrive(3), arrive(4), arrive(5),
		arrive(6), arrive(7), arrive(8), arrive(9), arrive(10)); err != nil {
		t.Fatal(err)
	}
	if st, _ := eng.TenantStats("r"); st.Events != 8 || st.Queued != 2 {
		t.Fatalf("before the duplicate: Events %d Queued %d, want 8 and 2", st.Events, st.Queued)
	}
	err := eng.Submit("r", arrive(11), arrive(12), arrive(9), arrive(13), arrive(14), arrive(15), arrive(16))
	if !errors.Is(err, ErrTenantPoisoned) || !errors.Is(err, errs.ErrDuplicateTask) {
		t.Fatalf("duplicate in a carried batch: %v, want ErrTenantPoisoned wrapping ErrDuplicateTask", err)
	}
	st, _ := eng.TenantStats("r")
	if st.Queued != 0 || st.Events != 8 || st.Batches != 1 || st.BreakerState != "open" {
		t.Errorf("poisoned tenant: Queued %d Events %d Batches %d breaker %q, want 0, 8, 1 and open",
			st.Queued, st.Events, st.Batches, st.BreakerState)
	}
}

// TestLargeSubmitDrainsAndReleases submits one stream far larger than a
// batch in a single call. Every full batch is applied in that call, the
// remainder stays queued, the applied prefix matches a serial run, and
// the array the Submit grew is not kept to hold the remainder.
func TestLargeSubmitDrainsAndReleases(t *testing.T) {
	const batch = 8
	evs := testStream(256, 1<<15, 9)
	eng := New(Config{Shards: 1, BatchSize: batch})
	alloc := core.NewRandom(tree.MustNew(256), 3)
	if err := eng.AddTenant("r", alloc); err != nil {
		t.Fatal(err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	if err := eng.Submit("r", evs...); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	st, err := eng.TenantStats("r")
	if err != nil {
		t.Fatal(err)
	}
	applied := len(evs) / batch * batch
	if st.Events != int64(applied) || st.Queued != len(evs)-applied || st.Batches != int64(len(evs)/batch) {
		t.Fatalf("one Submit of %d events: Events %d Queued %d Batches %d, want %d, %d and %d",
			len(evs), st.Events, st.Queued, st.Batches, applied, len(evs)-applied, len(evs)/batch)
	}
	ref := core.NewRandom(tree.MustNew(256), 3)
	core.ApplyEvents(ref, evs[:applied])
	if !reflect.DeepEqual(alloc.PELoads(), ref.PELoads()) || st.Active != ref.Active() {
		t.Errorf("engine state after %d applied events differs from a serial run of them", applied)
	}
	// The grown array is len(evs)·sizeof(Event) bytes; keeping it for
	// the remainder would leave at least that much more heap live.
	arr := int64(len(evs)) * int64(unsafe.Sizeof(task.Event{}))
	if grew := int64(ms1.HeapAlloc) - int64(ms0.HeapAlloc); grew > arr/2 {
		t.Errorf("live heap grew %d bytes over the Submit; the queue still holds its %d-byte array", grew, arr)
	}
	runtime.KeepAlive(evs)
}
