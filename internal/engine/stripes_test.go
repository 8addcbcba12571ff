package engine

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"partalloc/internal/core"
	"partalloc/internal/obs"
	"partalloc/internal/task"
	"partalloc/internal/tree"
	"partalloc/internal/wal"
)

// gateOnApply parks inside ApplyBatch until release is closed, holding
// its stripe's lock the whole time, as a long batch apply does.
type gateOnApply struct {
	core.Allocator
	entered chan struct{}
	release chan struct{}
}

func (g *gateOnApply) ApplyBatch(evs []task.Event) {
	close(g.entered)
	<-g.release
	core.ApplyEvents(g.Allocator, evs)
}

// TestStripeIsolation blocks one tenant's batch apply under its stripe
// lock on a default-striped engine. A Submit to a tenant on another
// stripe must still return; a Submit to a tenant on the same stripe
// must wait for the release, and its wait must land in the lock-wait
// histogram as one observation at least as long as the block.
func TestStripeIsolation(t *testing.T) {
	m := obs.NewMetrics()
	e := New(Config{BatchSize: 1, Sink: obs.NewSink(m, nil)})
	const blocked = "blocked"
	home := e.route(blocked)
	var other, same string
	for i := 0; other == "" || same == ""; i++ {
		if i == 10000 {
			t.Fatalf("no tenant ID found on the stripe of %q and on another of %d stripes", blocked, len(e.shards))
		}
		id := fmt.Sprintf("t%03d", i)
		if e.route(id) == home {
			if same == "" {
				same = id
			}
		} else if other == "" {
			other = id
		}
	}
	gate := &gateOnApply{
		Allocator: core.NewBasic(tree.MustNew(8)),
		entered:   make(chan struct{}),
		release:   make(chan struct{}),
	}
	for id, a := range map[string]core.Allocator{
		blocked: gate,
		other:   core.NewBasic(tree.MustNew(8)),
		same:    core.NewBasic(tree.MustNew(8)),
	} {
		if err := e.AddTenant(id, a); err != nil {
			t.Fatal(err)
		}
	}
	arrive := task.Event{Kind: task.Arrive, Task: 1, Size: 1}
	submit := func(id string) <-chan error {
		done := make(chan error, 1)
		go func() { done <- e.Submit(id, arrive) }()
		return done
	}

	release := sync.OnceFunc(func() { close(gate.release) })
	defer release() // a failed check must not leave the batch parked
	blockedDone := submit(blocked)
	<-gate.entered
	select {
	case err := <-submit(other):
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a Submit on another stripe waited behind the blocked batch")
	}

	// The measured block starts once the same-stripe Submit is parked
	// on the stripe lock, so its wait began before it.
	sameDone := submit(same)
	waitParkedInLockTenantShard(t)
	start := time.Now()
	time.Sleep(50 * time.Millisecond)
	select {
	case <-sameDone:
		t.Fatal("a Submit on the blocked stripe returned before the release")
	default:
	}
	block := time.Since(start)
	release()
	for _, done := range []<-chan error{blockedDone, sameDone} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	h := m.Histogram(obs.MetricShardLockWait, "")
	if h.Count() != 1 {
		t.Fatalf("%d lock-wait observations, want 1 (only the same-stripe Submit contended)", h.Count())
	}
	if h.SumNs() < block.Nanoseconds() {
		t.Fatalf("recorded lock wait %v, shorter than the %v block", time.Duration(h.SumNs()), block)
	}
}

// waitParkedInLockTenantShard polls the goroutine dump until some
// goroutine is parked on a mutex inside lockTenantShard.
func waitParkedInLockTenantShard(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		n := runtime.Stack(buf, true)
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			if strings.Contains(g, "[sync.Mutex.Lock") && strings.Contains(g, "lockTenantShard") {
				return
			}
		}
	}
	t.Fatal("no Submit parked on the blocked stripe's lock within 10s")
}

// TestRecoverKeepsSnapshottedStripes pins what recovery does with a
// journal written under another stripe count: a tenant restored from a
// snapshot keeps the stripe its envelope recorded while that stripe
// exists, and a tenant with no snapshot is hashed over the recovering
// engine's stripes. A journal written under the old two-stripe default
// and recovered with the default count therefore keeps its snapshotted
// tenants on stripes 0 and 1.
func TestRecoverKeepsSnapshottedStripes(t *testing.T) {
	stripes := len(New(Config{}).shards)
	var snap, plain string
	for i := 0; snap == "" || plain == ""; i++ {
		if i == 10000 {
			t.Fatalf("no tenant IDs whose stripe differs between 2 and %d stripes", stripes)
		}
		id := fmt.Sprintf("t%03d", i)
		if hashShard(id, 2) == hashShard(id, stripes) {
			continue
		}
		if snap == "" {
			snap = id
		} else {
			plain = id
		}
	}

	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Shards: 2, BatchSize: 8, Journal: log, Rebuild: testRebuild, SnapshotEvery: 1})
	addSpecTenant(t, eng, TenantSpec{ID: snap, Algorithm: "basic", N: 16})
	addSpecTenant(t, eng, TenantSpec{ID: plain, Algorithm: "basic", N: 16})
	if err := eng.Submit(snap, testStream(16, 16, 1)...); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(Config{BatchSize: 8, Rebuild: testRebuild}, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.cfg.Journal.Close()
	if got := rec.RecoveryStats().SnapshotsRestored; got == 0 {
		t.Fatalf("recovery restored no snapshot of %q", snap)
	}
	if got, want := len(rec.shards), stripes; got != want {
		t.Fatalf("recovered engine has %d stripes, want the default %d", got, want)
	}
	if got, want := rec.route(snap), hashShard(snap, 2); got != want {
		t.Errorf("snapshotted %q recovered on stripe %d, want its recorded stripe %d", snap, got, want)
	}
	if got, want := rec.route(plain), hashShard(plain, stripes); got != want {
		t.Errorf("unsnapshotted %q recovered on stripe %d, want its hash stripe %d of %d", plain, got, want, stripes)
	}
}
