package core

import (
	"cmp"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"partalloc/internal/loadtree"
	"partalloc/internal/task"
	"partalloc/internal/tree"
	"partalloc/internal/workload"
)

// healthySizes returns the task sizes that still have at least one
// submachine free of failed PEs.
func healthySizes(m *tree.Machine, failed []int) []int {
	var out []int
	for size := 1; size <= m.N(); size *= 2 {
		for i := 0; i < m.N()/size; i++ {
			ok := true
			for _, pe := range failed {
				if pe/size == i {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, size)
				break
			}
		}
	}
	return out
}

// activeTasks lists the tasks of placed in ID order.
func activeTasks(placed map[task.ID]placementRec) []task.Task {
	tasks := make([]task.Task, 0, len(placed))
	for id, rec := range placed {
		tasks = append(tasks, task.Task{ID: id, Size: rec.size})
	}
	slices.SortFunc(tasks, func(a, b task.Task) int { return cmp.Compare(a.ID, b.ID) })
	return tasks
}

// oracleLoads derives PE loads from placements through a fresh load tree.
func oracleLoads(m *tree.Machine, placed map[task.ID]placementRec) []int {
	lt := loadtree.New(m)
	for _, rec := range placed {
		lt.Place(rec.node)
	}
	return lt.Loads()
}

// sortedMigrations orders migrations by task ID, for set comparison.
func sortedMigrations(ms []Migration) []Migration {
	out := slices.Clone(ms)
	slices.SortFunc(out, func(a, b Migration) int { return int(a.ID - b.ID) })
	return out
}

// checkReallocate runs a.reallocate and checks it with checkAgainstOracle.
func checkReallocate(t *testing.T, label string, a *amState) {
	t.Helper()
	old, prevStats := maps.Clone(a.placed), a.stats
	var got []Migration
	prevObs := a.observer
	a.observer = func(id task.ID, from, to tree.Node) { got = append(got, Migration{ID: id, From: from, To: to}) }
	a.reallocate()
	a.observer = prevObs
	checkAgainstOracle(t, label, a, old, got, a.stats.Migrations-prevStats.Migrations)
}

// checkAgainstOracle requires that a's layout right after a reallocation
// is exactly the one the exported oracle ReallocateAll builds for the
// same active set: the same copy index and node for every task, the same
// list length, copy contents and PE loads, and the same (id, from, to)
// migration set against the placements old held before it (a task
// missing from old is the arrival that fired it and cannot migrate).
// Every copy and the load tree must also pass their invariant audits.
func checkAgainstOracle(t *testing.T, label string, a *amState, old map[task.ID]placementRec, got []Migration, counted int64) {
	t.Helper()
	wantList, wantPlaced := ReallocateAll(a.m, activeTasks(a.placed), a.order, a.faults.failed)
	var want []Migration
	for id, rec := range wantPlaced {
		if from := old[id].node; from != 0 && from != rec.node {
			want = append(want, Migration{ID: id, From: from, To: rec.node})
		}
	}
	for id, w := range wantPlaced {
		if g := a.placed[id]; g != w {
			t.Fatalf("%s: task %d at (copy %d, node %d), oracle (copy %d, node %d)",
				label, id, g.copyIdx, g.node, w.copyIdx, w.node)
		}
	}
	if a.list.Len() != wantList.Len() {
		t.Fatalf("%s: %d copies, oracle %d", label, a.list.Len(), wantList.Len())
	}
	for i := 0; i < wantList.Len(); i++ {
		if g, w := a.list.At(i).AssignedNodes(), wantList.At(i).AssignedNodes(); !slices.Equal(g, w) {
			t.Fatalf("%s: copy %d assigns %v, oracle %v", label, i, g, w)
		}
		a.list.At(i).CheckInvariants()
	}
	if g, w := a.loads.Loads(), oracleLoads(a.m, wantPlaced); !slices.Equal(g, w) {
		t.Fatalf("%s: PE loads %v, oracle %v", label, g, w)
	}
	a.loads.CheckInvariants()
	if g, w := sortedMigrations(got), sortedMigrations(want); !slices.Equal(g, w) {
		t.Fatalf("%s: migrations %v, oracle %v", label, g, w)
	}
	if counted != int64(len(want)) {
		t.Fatalf("%s: Migrations advanced by %d, oracle moves %d tasks", label, counted, len(want))
	}
}

// TestReallocateMatchesOracle is the differential test of procedure A_R:
// on random A_B histories (arrivals and departures, so the copies are
// fragmented) over 0–3 failed PEs, the allocator's reallocate — the Lemma
// 1 closed form for DecreasingSize without failures, first fit otherwise
// — must reproduce ReallocateAll task for task. A follow-up first-fit
// probe of every healthy size then checks the first-fit hints the
// reallocation left behind against the oracle's list.
func TestReallocateMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64, 256} {
		m := tree.MustNew(n)
		for _, order := range []ReallocOrder{DecreasingSize, ArrivalOrder} {
			for seed := int64(0); seed < 200; seed++ {
				rng := rand.New(rand.NewSource(seed*7919 + int64(n)))
				p := &Periodic{amState: newAMState(m, 1, order, false)}
				failed := rng.Perm(n)[:min(rng.Intn(4), n-1)]
				for _, pe := range failed {
					p.FailPE(pe)
				}
				sizes := healthySizes(m, failed)
				var live []task.ID
				next := task.ID(1)
				steps := 1 + rng.Intn(4*n+8)
				for s := 0; s < steps; s++ {
					if len(live) > 0 && rng.Intn(3) == 0 {
						i := rng.Intn(len(live))
						p.Depart(live[i])
						live = slices.Delete(live, i, i+1)
						continue
					}
					tk := task.Task{ID: next, Size: sizes[rng.Intn(len(sizes))]}
					next++
					p.admit(tk, p)
					p.settle(tk, false)
					live = append(live, tk.ID)
				}
				label := m.String() + "/" + order.String()
				checkReallocate(t, label, &p.amState)

				// The hints are lower bounds on the first copy with room:
				// first fit over the rebuilt list must agree with the oracle.
				wantList, _ := ReallocateAll(m, activeTasks(p.placed), order, p.faults.failed)
				for _, size := range sizes {
					gci, gv := p.list.Place(size)
					wci, wv := wantList.Place(size)
					if gci != wci || gv != wv {
						t.Fatalf("%s seed %d: first fit of size %d after reallocate = (%d, %d), oracle (%d, %d)",
							label, seed, size, gci, gv, wci, wv)
					}
				}
			}
		}
	}
}

// TestReallocateChurnMatchesOracle drives A_M and A_M-lazy with d ∈ {0,
// 1, 4} through a saturation stream, with two PE failures a third of the
// way in, and checks every reallocation against the oracle as it happens.
func TestReallocateChurnMatchesOracle(t *testing.T) {
	m := tree.MustNew(256)
	seq := workload.Saturation(workload.SaturationConfig{N: 256, Target: 3, Churn: 0.25, Events: 3000, Seed: 3})
	for _, d := range []int{0, 1, 4} {
		periodic, lazy := NewPeriodic(m, d, DecreasingSize), NewLazy(m, d, DecreasingSize)
		for _, c := range []struct {
			alloc Allocator
			state *amState
		}{{periodic, &periodic.amState}, {lazy, &lazy.amState}} {
			a := c.state
			var got []Migration
			a.observer = func(id task.ID, from, to tree.Node) { got = append(got, Migration{ID: id, From: from, To: to}) }
			checked := 0
			for i, e := range seq.Events {
				if i == len(seq.Events)/3 {
					// Both in the left half: size-128 tasks still fit on the right.
					c.alloc.(FaultTolerant).FailPE(17)
					c.alloc.(FaultTolerant).FailPE(100)
				}
				if e.Kind == task.Depart {
					c.alloc.Depart(e.Task)
					continue
				}
				old, prev := maps.Clone(a.placed), a.stats
				got = got[:0]
				c.alloc.Arrive(task.Task{ID: e.Task, Size: e.Size})
				if a.stats.Reallocations > prev.Reallocations {
					label := c.alloc.Name() + " event " + strconv.Itoa(i)
					checkAgainstOracle(t, label, a, old, got, a.stats.Migrations-prev.Migrations)
					checked++
				}
			}
			if checked < 5 {
				t.Fatalf("%s: only %d reallocations checked", c.alloc.Name(), checked)
			}
		}
	}
}

// TestMigrationObserverOrder records the observer's calls across each
// reallocation of a churn stream and requires them in A_R's placement
// order: size descending, then ID ascending, for DecreasingSize; ID
// ascending for ArrivalOrder. The stream must produce reallocations that
// move several tasks of more than one size, or the order is untested.
func TestMigrationObserverOrder(t *testing.T) {
	m := tree.MustNew(64)
	evs := workload.Saturation(workload.SaturationConfig{N: 64, Target: 3, Churn: 0.25, Events: 2000, Seed: 5}).Events
	for _, order := range []ReallocOrder{DecreasingSize, ArrivalOrder} {
		p := NewPeriodic(m, 1, order)
		var calls []Migration
		p.SetMigrationObserver(func(id task.ID, from, to tree.Node) { calls = append(calls, Migration{ID: id, From: from, To: to}) })
		mixed := 0
		for i := range evs {
			calls = calls[:0]
			before := p.ReallocStats().Reallocations
			ApplyEvents(p, evs[i:i+1])
			if p.ReallocStats().Reallocations == before {
				continue
			}
			for k := 1; k < len(calls); k++ {
				prev, cur := calls[k-1], calls[k]
				ps, cs := m.Size(prev.To), m.Size(cur.To)
				inOrder := prev.ID < cur.ID
				if order == DecreasingSize && ps != cs {
					inOrder = ps > cs
				}
				if !inOrder {
					t.Fatalf("%s event %d: observer saw %+v (size %d) before %+v (size %d)", order, i, prev, ps, cur, cs)
				}
			}
			if len(calls) >= 3 && m.Size(calls[0].To) != m.Size(calls[len(calls)-1].To) {
				mixed++
			}
		}
		if mixed < 5 {
			t.Fatalf("%s: only %d reallocations moved tasks of several sizes", order, mixed)
		}
	}
}

// TestReallocAllocs pins the allocation counts of the A_M constructors
// and of a steady-state reallocation. A reallocation reuses the copy
// list and the load tree, so what it allocates per call is the ordered
// task slice and the fresh placement map, not one copy per L*; and the
// constructors allocate nothing for that reuse, nor a LeftmostMinLoad
// index their load tree never uses.
func TestReallocAllocs(t *testing.T) {
	m := tree.MustNew(256)
	if got := testing.AllocsPerRun(50, func() { NewPeriodic(m, 1, DecreasingSize) }); got != 6 {
		t.Errorf("NewPeriodic allocates %v times, want 6", got)
	}
	if got := testing.AllocsPerRun(50, func() { NewLazy(m, 1, DecreasingSize) }); got != 5 {
		t.Errorf("NewLazy allocates %v times, want 5", got)
	}

	evs := workload.Saturation(workload.SaturationConfig{N: 256, Target: 8, Churn: 0.25, Events: 8192, Seed: 1}).Events
	p := NewPeriodic(m, 1, DecreasingSize)
	half := len(evs) / 2
	for lo := 0; lo < half; lo += 32 {
		p.ApplyBatch(evs[lo:min(lo+32, half)])
	}
	before := p.ReallocStats().Reallocations
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for lo := half; lo < len(evs); lo += 32 {
		p.ApplyBatch(evs[lo:min(lo+32, len(evs))])
	}
	runtime.ReadMemStats(&ms1)
	reallocs := p.ReallocStats().Reallocations - before
	if reallocs < 50 {
		t.Fatalf("only %d reallocations in the measured half", reallocs)
	}
	per := float64(ms1.Mallocs-ms0.Mallocs) / float64(reallocs)
	t.Logf("%d reallocations, %.1f allocations each", reallocs, per)
	if per > 8 {
		t.Errorf("%.1f allocations per reallocation, want ≤ 8", per)
	}
}

// BenchmarkReallocAM runs the realloc-am tenant stream of the end-to-end
// benchmark (perfbench) through one allocator: a saturation stream at
// about nine times the machine's capacity, N = 256, d = 1, applied in
// 32-event batches, so A_R reallocations dominate.
func BenchmarkReallocAM(b *testing.B) {
	m := tree.MustNew(256)
	evs := workload.Saturation(workload.SaturationConfig{N: 256, Target: 8, Churn: 0.25, Events: 32768, Seed: 1}).Events
	type batchReallocator interface {
		BatchApplier
		Reallocator
	}
	for _, mk := range []struct {
		name string
		new  func() batchReallocator
	}{
		{"A_M(d=1)", func() batchReallocator { return NewPeriodic(m, 1, DecreasingSize) }},
		{"A_M-lazy(d=1)", func() batchReallocator { return NewLazy(m, 1, DecreasingSize) }},
	} {
		b.Run(mk.name, func(b *testing.B) {
			b.ReportAllocs()
			reallocs := 0
			for i := 0; i < b.N; i++ {
				a := mk.new()
				for lo := 0; lo < len(evs); lo += 32 {
					a.ApplyBatch(evs[lo:min(lo+32, len(evs))])
				}
				reallocs = a.ReallocStats().Reallocations
			}
			b.ReportMetric(float64(reallocs), "reallocs")
			b.ReportMetric(float64(len(evs))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
