package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"

	"partalloc"
	"partalloc/internal/obs"
)

// roundKind selects how a round builds its engine.
type roundKind int

const (
	plainRound  roundKind = iota // facade engine, the workload's settings
	tracedRound                  // internal engine with the traced decorator
	noObsRound                   // facade engine with metrics and flight recorder detached
)

// round is what one round measured: one engine set up, every stream
// ingested by the closed-loop clients, FlushAll, checks and, with a
// journal, Close and RecoverEngine.
type round struct {
	kind      roundKind
	events    int64
	wallNs    int64 // first Submit until FlushAll returns
	setupNs   int64 // NewEngine through the last AddTenant
	recoverNs int64 // RecoverEngine; 0 without a journal
	heapLive  int64 // live heap the engine added, after runtime.GC
	submitNs  []int64
	readNs    []int64
	canon     []byte
	stats     []partalloc.EngineTenantStats
	shards    []partalloc.EngineShardStats
	rebal     partalloc.RebalanceStats
	recovery  partalloc.RecoveryStats
	wal       walSample
	proc      procSample
	spans     []span
	ledger
}

func (r *round) eventsPerS() float64 { return float64(r.events) / (float64(r.wallNs) / 1e9) }

// client is one closed-loop submitter: it owns a disjoint share of the
// tenants and blocks on every call.
type client struct {
	tenants  []*tenantDef
	lane     *lane // nil in untraced rounds
	balanced bool
	submitNs []int64
	readNs   []int64
	ledger
}

func newClients(w *workload, tr *tracer) []*client {
	cs := make([]*client, clients)
	for c := range cs {
		n := w.submitsOf(c)
		reads := sweepReads / clients
		if w.ReadEvery > 0 {
			reads = n / w.ReadEvery
		}
		cs[c] = &client{
			balanced: w.Engine.Balanced,
			submitNs: make([]int64, 0, n),
			readNs:   make([]int64, 0, reads),
		}
		if tr != nil {
			cs[c].lane = tr.lanes[c]
		}
	}
	for i := range w.Tenants {
		t := &w.Tenants[i]
		cs[t.Owner].tenants = append(cs[t.Owner].tenants, t)
	}
	return cs
}

// ingest submits the client's streams in submitChunk-event chunks,
// round-robin over its tenants, until every stream is exhausted.
func (c *client) ingest(api engineAPI, w *workload) {
	pos := make([]int, len(c.tenants))
	live := make([]int, len(c.tenants))
	for i := range live {
		live[i] = i
	}
	calls := 0
	for len(live) > 0 {
		for k := 0; k < len(live); {
			i := live[k]
			t := c.tenants[i]
			end := min(pos[i]+submitChunk, len(t.Events))
			c.submit(api, t.ID, t.Events[pos[i]:end])
			pos[i] = end
			calls++
			if w.ReadEvery > 0 && calls%w.ReadEvery == 0 {
				c.read(api, t.ID)
			}
			if end < len(t.Events) {
				k++
				continue
			}
			if w.FlushOnEnd {
				c.flush(api, t.ID)
			}
			live = append(live[:k], live[k+1:]...)
		}
	}
}

// sweep reads n tenant ledgers round-robin over the client's tenants.
func (c *client) sweep(api engineAPI, n int) {
	for k := 0; k < n; k++ {
		c.read(api, c.tenants[k%len(c.tenants)].ID)
	}
}

func (c *client) submit(api engineAPI, id string, evs []partalloc.Event) {
	var passes int64
	if c.lane != nil && c.balanced {
		passes = api.RebalanceStats().Passes
	}
	start := nowNs()
	if c.lane != nil {
		c.lane.begin(spanSubmit, start)
	}
	err := api.Submit(id, evs...)
	end := nowNs()
	if c.lane != nil {
		c.lane.end(end, int64(len(evs)), c.balanced && api.RebalanceStats().Passes > passes)
	}
	c.submitNs = append(c.submitNs, end-start)
	c.call(err, "Submit", id)
}

func (c *client) read(api engineAPI, id string) {
	start := nowNs()
	if c.lane != nil {
		c.lane.begin(spanStats, start)
	}
	_, err := api.TenantStats(id)
	end := nowNs()
	if c.lane != nil {
		c.lane.end(end, 0, false)
	}
	c.readNs = append(c.readNs, end-start)
	c.call(err, "TenantStats", id)
}

func (c *client) flush(api engineAPI, id string) {
	if c.lane != nil {
		c.lane.begin(spanFlush, nowNs())
	}
	err := api.Flush(id)
	if c.lane != nil {
		c.lane.end(nowNs(), 0, false)
	}
	c.call(err, "Flush", id)
}

// parallel runs fn once per client and waits for all of them. It
// returns the time just before the clients were released.
func parallel(cs []*client, fn func(c *client)) int64 {
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			<-start
			fn(c)
		}(c)
	}
	t0 := nowNs()
	close(start)
	wg.Wait()
	return t0
}

// runRound runs one round in dir, which it removes before returning.
func runRound(w *workload, exp []expect, kind roundKind, dir string) *round {
	r := &round{kind: kind}
	defer os.RemoveAll(dir)
	s := w.Engine
	if kind == noObsRound {
		s.Obs = false
	}
	var tr *tracer
	if kind == tracedRound {
		tr = newTracer(w)
	}
	cs := newClients(w, tr)

	runtime.GC()
	base := liveHeap()
	t0 := nowNs()
	sys, err := build(w, s, dir, tr)
	r.setupNs = nowNs() - t0
	if r.call(err, "set-up", ""); err != nil {
		return r
	}

	proc0 := readProc()
	t1 := parallel(cs, func(c *client) { c.ingest(sys.api, w) })
	ml := serialBegin(tr, spanFlushAll)
	err = sys.api.FlushAll()
	t2 := nowNs()
	serialEnd(tr, ml, t2)
	r.proc = readProc().sub(proc0)
	r.wallNs = t2 - t1
	r.events = w.totalEvents()
	r.call(err, "FlushAll", "")
	if w.ReadEvery == 0 {
		// Collect the ingest's garbage first, so the sweep times reads and
		// not the tail of a GC cycle the ingest started.
		runtime.GC()
		parallel(cs, func(c *client) { c.sweep(sys.api, sweepReads/clients) })
	}

	runtime.GC()
	r.heapLive = liveHeap() - base
	for _, c := range cs {
		r.submitNs = append(r.submitNs, c.submitNs...)
		r.readNs = append(r.readNs, c.readNs...)
		r.merge(&c.ledger)
	}

	r.stats = verify(w, exp, sys.api, &r.ledger)
	r.canon = canonical(r.stats)
	r.shards = sys.api.ShardStats()
	r.rebal = sys.api.RebalanceStats()
	if sys.metrics != nil {
		r.wal = readWAL(sys.metrics, w, dir)
	}
	r.call(sys.close(), "Close", "")
	if s.Journal {
		r.recoverAndCompare(w, s, dir, tr)
	}
	if tr != nil {
		r.spans = tr.allSpans()
	}
	return r
}

// recoverAndCompare times RecoverEngine over the journal the round
// wrote and checks the recovered ledgers equal the live ones.
func (r *round) recoverAndCompare(w *workload, s engineSettings, dir string, tr *tracer) {
	ml := serialBegin(tr, spanRecover)
	t0 := nowNs()
	rec, err := recoverSystem(s, dir, tr)
	t1 := nowNs()
	serialEnd(tr, ml, t1)
	r.recoverNs = t1 - t0
	if r.call(err, "RecoverEngine", ""); err != nil {
		return
	}
	for i, t := range w.Tenants {
		st, err := rec.api.TenantStats(t.ID)
		r.call(err, "recovered TenantStats", t.ID)
		live := partalloc.CanonicalEngineStats(r.stats[i])
		got := partalloc.CanonicalEngineStats(st)
		r.check(string(got) == string(live), "%s: recovered stats differ from the live engine's", t.ID)
	}
	r.recovery = rec.api.RecoveryStats()
	r.call(rec.close(), "Close recovered engine", "")
}

// serialBegin hands decorator calls to the main lane while the clients
// are stopped, and opens its top-level span. No-op untraced.
func serialBegin(tr *tracer, k spanKind) *lane {
	if tr == nil {
		return nil
	}
	l := tr.main()
	tr.serial.Store(l)
	l.begin(k, nowNs())
	return l
}

func serialEnd(tr *tracer, l *lane, end int64) {
	if tr == nil {
		return
	}
	l.end(end, 0, false)
	tr.serial.Store(nil)
}

// procSample is the process's resource use: runtime/metrics allocation
// and GC counters, and user+system CPU time from getrusage.
type procSample struct {
	allocBytes, allocObjects, gcCycles uint64
	cpuNs                              int64
}

var procMetrics = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

func readProc() procSample {
	s := make([]metrics.Sample, len(procMetrics))
	for i, name := range procMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return procSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		cpuNs:        ru.Utime.Nano() + ru.Stime.Nano(),
	}
}

func (p procSample) sub(o procSample) procSample {
	return procSample{p.allocBytes - o.allocBytes, p.allocObjects - o.allocObjects, p.gcCycles - o.gcCycles, p.cpuNs - o.cpuNs}
}

func liveHeap() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// walSample reads the engine's own journal and snapshot series, and
// the journal directory's size on disk.
type walSample struct {
	appends, appendBytes, appendNs, appendCount int64
	fsyncs, fsyncNs, fsyncCount                 int64
	truncated                                   int64
	snapBytes, snapTenants                      int64
	onDisk                                      int64
}

func readWAL(m *partalloc.Metrics, w *workload, dir string) walSample {
	ws := walSample{
		appends:     m.Counter(obs.MetricWALAppends, "").Value(),
		appendBytes: m.Counter(obs.MetricWALAppendBytes, "").Value(),
		appendNs:    m.Histogram(obs.MetricWALAppendLatency, "").SumNs(),
		appendCount: m.Histogram(obs.MetricWALAppendLatency, "").Count(),
		fsyncs:      m.Counter(obs.MetricWALFsyncs, "").Value(),
		fsyncNs:     m.Histogram(obs.MetricWALFsyncLatency, "").SumNs(),
		fsyncCount:  m.Histogram(obs.MetricWALFsyncLatency, "").Count(),
		truncated:   m.Counter(obs.MetricSnapshotTruncated, "").Value(),
	}
	for _, t := range w.Tenants {
		if b := m.Gauge(obs.MetricSnapshotBytes, "", obs.L("tenant", t.ID)).Value(); b > 0 {
			ws.snapBytes += b
			ws.snapTenants++
		}
	}
	entries, _ := os.ReadDir(dir) // no journal directory: nothing on disk
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			ws.onDisk += info.Size()
		}
	}
	return ws
}

func roundDir(work string, i int) string { return filepath.Join(work, fmt.Sprintf("round-%03d", i)) }
