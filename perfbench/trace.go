package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"partalloc"
	"partalloc/internal/core"
	"partalloc/internal/engine"
	"partalloc/internal/fault"
	"partalloc/internal/task"
	"partalloc/internal/topology"
)

// epoch anchors every timestamp the benchmark takes; time.Since reads
// the monotonic clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// spanKind names a traced call. Top-level kinds are the benchmark's
// calls into the engine; the others are calls the engine makes into the
// traced allocator decorator.
type spanKind uint8

const (
	spanSubmit spanKind = iota + 1
	spanFlush
	spanStats
	spanFlushAll
	spanRecover
	spanApply
	spanSnapshot
	spanRestore
	spanReboxEncode
	spanReboxRestore
)

var spanNames = map[spanKind]string{
	spanSubmit:       "engine.submit",
	spanFlush:        "engine.flush",
	spanStats:        "engine.stats",
	spanFlushAll:     "engine.flush_all",
	spanRecover:      "engine.recover",
	spanApply:        "core.apply",
	spanSnapshot:     "snapshot.encode",
	spanRestore:      "recovery.restore",
	spanReboxEncode:  "placement.rebox_encode",
	spanReboxRestore: "placement.rebox_restore",
}

// span is one traced call. Req is the ID of the top-level span (one
// Submit, Flush, TenantStats, FlushAll or RecoverEngine call) the span
// belongs to; Parent is 0 for top-level spans and for the snapshot
// round trips of placement moves, whose calling request is not visible
// from outside the engine.
type span struct {
	ID, Parent, Req uint64
	Kind            spanKind
	Realloc         bool  // core.apply: the batch ran at least one reallocation
	Pass            bool  // engine.submit: a rebalance pass completed during the call
	Size            int64 // events submitted or applied; bytes for snapshot encodes
	Start, End      int64 // ns since epoch
}

func (s span) dur() int64 { return s.End - s.Start }

// lane records the top-level spans of one goroutine: a client, or the
// main goroutine for FlushAll and recovery. Only its goroutine appends;
// cur is read by decorator calls from any goroutine.
type lane struct {
	src   uint64
	seq   uint64
	cur   atomic.Uint64 // ID of the open top-level span, 0 when none
	spans []span
}

func (l *lane) begin(k spanKind, start int64) {
	l.seq++
	id := l.src<<32 | l.seq
	l.spans = append(l.spans, span{ID: id, Req: id, Kind: k, Start: start})
	l.cur.Store(id)
}

func (l *lane) end(end, size int64, pass bool) {
	s := &l.spans[len(l.spans)-1]
	s.End, s.Size, s.Pass = end, size, pass
	l.cur.Store(0)
}

// tenantTrace records the decorator spans of one tenant. The engine
// calls a tenant's allocator only under the tenant's shard lock, so
// appends from different goroutines are ordered by that lock.
type tenantTrace struct {
	tr    *tracer
	src   uint64
	seq   uint64
	owner *lane
	spans []span
	// rebox is set when the engine rebuilds the allocator outside
	// recovery, which it does only to move the tenant between shards:
	// the next Restore installs the move.
	rebox bool
}

func (tt *tenantTrace) begin(k spanKind) int {
	parent := uint64(0)
	if k != spanReboxRestore {
		l := tt.tr.serial.Load()
		if l == nil {
			l = tt.owner
		}
		parent = l.cur.Load()
	}
	tt.seq++
	tt.spans = append(tt.spans, span{ID: tt.src<<32 | tt.seq, Parent: parent, Req: parent, Kind: k, Start: nowNs()})
	return len(tt.spans) - 1
}

func (tt *tenantTrace) end(i int, size int64, realloc bool) {
	s := &tt.spans[i]
	s.End, s.Size, s.Realloc = nowNs(), size, realloc
}

// tracer holds the spans of one traced round.
type tracer struct {
	lanes   []*lane // the clients, then main
	tenants map[string]*tenantTrace
	// serial is the main lane while the clients are stopped (FlushAll,
	// recovery): decorator calls then belong to it, not to the owner.
	serial atomic.Pointer[lane]
}

func newTracer(w *workload) *tracer {
	tr := &tracer{tenants: make(map[string]*tenantTrace, len(w.Tenants))}
	for i := 0; i <= clients; i++ {
		tr.lanes = append(tr.lanes, &lane{src: uint64(i + 1)})
	}
	for i, t := range w.Tenants {
		tr.tenants[t.ID] = &tenantTrace{tr: tr, src: uint64(clients + 2 + i), owner: tr.lanes[t.Owner]}
	}
	return tr
}

func (tr *tracer) main() *lane { return tr.lanes[clients] }

// rebuild is the engine.RebuildFunc of traced engines. It builds the
// allocator as the partalloc facade would (the benchmark's tenants use
// only algorithm, N, d and seed) and decorates it.
func (tr *tracer) rebuild(spec engine.TenantSpec) (core.Allocator, *fault.Schedule, *topology.Host, error) {
	tt := tr.tenants[spec.ID]
	if tt == nil {
		return nil, nil, nil, fmt.Errorf("traced rebuild: unknown tenant %q", spec.ID)
	}
	if spec.Order != "" || spec.Topology != "" || spec.Faults != "" {
		return nil, nil, nil, fmt.Errorf("traced rebuild %q: order, topology and faults are not supported", spec.ID)
	}
	algo, err := partalloc.ParseAlgorithm(spec.Algorithm)
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := partalloc.NewMachine(spec.N)
	if err != nil {
		return nil, nil, nil, err
	}
	var opts []partalloc.Option
	if spec.DSet {
		opts = append(opts, partalloc.WithD(spec.D))
	}
	if spec.SeedSet {
		opts = append(opts, partalloc.WithSeed(spec.Seed))
	}
	a, err := partalloc.New(algo, m, opts...)
	if err != nil {
		return nil, nil, nil, err
	}
	if tr.serial.Load() == nil {
		// A move: the engine has just encoded the tenant through the old
		// decorator and will restore it into this one.
		if n := len(tt.spans); n > 0 && tt.spans[n-1].Kind == spanSnapshot {
			s := &tt.spans[n-1]
			s.Kind, s.Parent, s.Req = spanReboxEncode, 0, 0
		}
		tt.rebox = true
	}
	d, err := decorate(a, tt)
	return d, nil, nil, err
}

// tenantSpec is the rebuild recipe the partalloc facade journals for t.
func (t tenantDef) tenantSpec() engine.TenantSpec {
	spec := engine.TenantSpec{ID: t.ID, Algorithm: t.Algo.String(), N: t.N, Seed: 1}
	switch t.Algo {
	case partalloc.AlgoPeriodic, partalloc.AlgoLazy:
		spec.D, spec.DSet = t.D, true
	case partalloc.AlgoRandom:
		spec.Seed, spec.SeedSet = t.Seed, true
	}
	return spec
}

// Optional interfaces the engine looks for on an allocator.
const (
	ifBatch = 1 << iota
	ifRealloc
	ifCheckpoint
	ifObservable
	ifFaultTolerant
	ifDegradable
)

func interfacesOf(a core.Allocator) int {
	set := 0
	if _, ok := a.(core.BatchApplier); ok {
		set |= ifBatch
	}
	if _, ok := a.(core.Reallocator); ok {
		set |= ifRealloc
	}
	if _, ok := a.(core.Checkpointable); ok {
		set |= ifCheckpoint
	}
	if _, ok := a.(core.Observable); ok {
		set |= ifObservable
	}
	if _, ok := a.(core.FaultTolerant); ok {
		set |= ifFaultTolerant
	}
	if _, ok := a.(core.Degradable); ok {
		set |= ifDegradable
	}
	return set
}

// decorate wraps a in the timing decorator that has exactly a's
// optional interfaces, so the engine takes the same code paths with and
// without tracing. Only the combinations the benchmark's allocators
// have are provided.
func decorate(a core.Allocator, tt *tenantTrace) (core.Allocator, error) {
	set := interfacesOf(a)
	base := &tracedAlloc{Allocator: a, tt: tt}
	if set&(ifBatch|ifCheckpoint) == ifBatch|ifCheckpoint {
		base.batch, base.ck = a.(core.BatchApplier), a.(core.Checkpointable)
	}
	switch set {
	case ifBatch | ifCheckpoint: // A_Rand
		return base, nil
	case ifBatch | ifCheckpoint | ifFaultTolerant: // A_B
		return &tracedFT{tracedAlloc: base, ft: a.(core.FaultTolerant)}, nil
	case ifBatch | ifRealloc | ifCheckpoint | ifObservable | ifFaultTolerant | ifDegradable: // A_M, A_M-lazy
		base.re = a.(core.Reallocator)
		return &tracedRealloc{
			tracedFT: tracedFT{tracedAlloc: base, ft: a.(core.FaultTolerant)},
			ob:       a.(core.Observable),
			dg:       a.(core.Degradable),
		}, nil
	}
	return nil, fmt.Errorf("no traced decorator for %s with optional interfaces %s", a.Name(), interfaceNames(set))
}

func interfaceNames(set int) string {
	names := []string{"BatchApplier", "Reallocator", "Checkpointable", "Observable", "FaultTolerant", "Degradable"}
	var out []string
	for i, n := range names {
		if set&(1<<i) != 0 {
			out = append(out, n)
		}
	}
	return "{" + strings.Join(out, ", ") + "}"
}

// tracedAlloc times ApplyBatch, Snapshot and Restore; every other
// Allocator method goes straight to the wrapped allocator.
type tracedAlloc struct {
	core.Allocator
	batch core.BatchApplier
	ck    core.Checkpointable
	re    core.Reallocator // nil unless the allocator reallocates
	tt    *tenantTrace
}

func (d *tracedAlloc) reallocations() int {
	if d.re == nil {
		return 0
	}
	return d.re.ReallocStats().Reallocations
}

func (d *tracedAlloc) ApplyBatch(evs []task.Event) {
	before := d.reallocations()
	i := d.tt.begin(spanApply)
	d.batch.ApplyBatch(evs)
	d.tt.end(i, int64(len(evs)), d.reallocations() > before)
}

func (d *tracedAlloc) Snapshot() []byte {
	i := d.tt.begin(spanSnapshot)
	b := d.ck.Snapshot()
	d.tt.end(i, int64(len(b)), false)
	return b
}

func (d *tracedAlloc) Restore(data []byte) error {
	k := spanRestore
	if d.tt.rebox {
		k, d.tt.rebox = spanReboxRestore, false
	}
	i := d.tt.begin(k)
	err := d.ck.Restore(data)
	d.tt.end(i, int64(len(data)), false)
	return err
}

// tracedFT adds core.FaultTolerant.
type tracedFT struct {
	*tracedAlloc
	ft core.FaultTolerant
}

func (d *tracedFT) FailPE(pe int) []core.Migration { return d.ft.FailPE(pe) }
func (d *tracedFT) RecoverPE(pe int)               { d.ft.RecoverPE(pe) }
func (d *tracedFT) FailedPEs() []int               { return d.ft.FailedPEs() }
func (d *tracedFT) ForcedStats() core.ForcedStats  { return d.ft.ForcedStats() }

// tracedRealloc adds core.Reallocator, core.Observable and
// core.Degradable.
type tracedRealloc struct {
	tracedFT
	ob core.Observable
	dg core.Degradable
}

func (d *tracedRealloc) ReallocStats() core.ReallocStats { return d.re.ReallocStats() }
func (d *tracedRealloc) SetMigrationObserver(fn core.MigrationObserver) {
	d.ob.SetMigrationObserver(fn)
}
func (d *tracedRealloc) EffectiveD() int               { return d.dg.EffectiveD() }
func (d *tracedRealloc) LazyRealloc() bool             { return d.dg.LazyRealloc() }
func (d *tracedRealloc) SetEffectiveD(n int) bool      { return d.dg.SetEffectiveD(n) }
func (d *tracedRealloc) SetLazyRealloc(lazy bool) bool { return d.dg.SetLazyRealloc(lazy) }

// allSpans returns every span of the round, ordered by start time.
func (tr *tracer) allSpans() []span {
	var out []span
	for _, l := range tr.lanes {
		out = append(out, l.spans...)
	}
	for _, tt := range tr.tenants {
		out = append(out, tt.spans...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		rec := struct {
			ID      uint64 `json:"id"`
			Parent  uint64 `json:"parent"`
			Req     uint64 `json:"req"`
			Name    string `json:"name"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
			Size    int64  `json:"size"`
			Realloc bool   `json:"realloc,omitempty"`
			Pass    bool   `json:"pass,omitempty"`
		}{s.ID, s.Parent, s.Req, spanNames[s.Kind], s.Start, s.End, s.Size, s.Realloc, s.Pass}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
