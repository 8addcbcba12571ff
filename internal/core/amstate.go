package core

import (
	"partalloc/internal/loadtree"
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// amState is the state kernel of the d-reallocation algorithms — A_M
// (Periodic, which with d = 0 is A_C) and A_M-lazy (Lazy). Per §4.1, A_M
// is A_B's first-fit over copies plus procedure A_R every d·N arrived
// units, so the kernel is A_B's copy kernel plus the reallocation budget
// and the one reallocate in the package. An instance built in greedy mode
// instead delegates everything to A_G, and the kernel forwards each
// Allocator and FaultTolerant call to whichever side is live.
//
// Periodic and Lazy add only what makes them different algorithms: when
// to fire reallocate (their trigger predicates), the greedy-mode rule at
// construction, their names, the lazy Degradable knob, and their
// snapshot tags.
type amState struct {
	// greedy mode: set at construction, never left
	greedy *Greedy

	// copy mode: A_B between reallocations (only m is set in greedy mode)
	copyState
	d          int // -1 encodes infinity
	order      ReallocOrder
	sinceRealo int64 // cumulative arrival size since last reallocation
	activeSize int64 // total size of active tasks, for the lazy trigger
	stats      ReallocStats
	observer   MigrationObserver
}

func newAMState(m *tree.Machine, d int, order ReallocOrder, greedyMode bool) amState {
	if greedyMode {
		return amState{greedy: NewGreedy(m), copyState: copyState{m: m}, d: d, order: order}
	}
	return amState{copyState: newCopyState(m), d: d, order: order}
}

// SetMigrationObserver implements Observable.
func (a *amState) SetMigrationObserver(fn MigrationObserver) { a.observer = fn }

// admit validates a copy-mode arrival and charges it to the budget
// counters, so the caller's trigger sees t included.
func (a *amState) admit(t task.Task, self Allocator) {
	a.copyState.admit(t, self)
	a.sinceRealo += int64(t.Size)
	a.activeSize += int64(t.Size)
}

// settle places an admitted arrival: first-fit over copies, or — when the
// caller's trigger fired — by reallocating every active task, the new
// arrival included.
func (a *amState) settle(t task.Task, fire bool) tree.Node {
	if !fire {
		return a.place(t.ID, t.Size)
	}
	a.placed[t.ID] = placementRec{copyIdx: -1, node: 0, size: t.Size}
	a.reallocate()
	a.sinceRealo = 0
	return a.placed[t.ID].node
}

// reallocate runs procedure A_R over the active set, updating migration
// statistics (a task "migrates" when its submachine root changes; moving
// between copies at the same node keeps the same PEs and is free).
func (a *amState) reallocate() {
	tasks := make([]task.Task, 0, len(a.placed))
	//lint:ignore detorder ReallocateAll re-sorts tasks with a total order (size, then ID), so collection order cannot matter
	for id, rec := range a.placed {
		tasks = append(tasks, task.Task{ID: id, Size: rec.size})
	}
	list, placed := ReallocateAll(a.m, tasks, a.order, a.faults.failed)
	a.stats.Reallocations++
	newLoads := loadtree.New(a.m)
	// Build the replacement tree with deferred aggregates when that is
	// cheaper (one O(N) rebuild vs len(placed) eager O(log²N) updates), and
	// always when the old tree is mid-batch: the replacement must inherit
	// deferred mode so ApplyBatch's EndDeferred lands on the current tree.
	lv := a.m.Levels() + 1
	if a.loads.Deferred() || len(placed)*lv*lv >= 4*a.m.NumNodes() {
		newLoads.BeginDeferred()
	}
	for id, rec := range placed {
		old := a.placed[id]
		// old.node == 0 marks the arrival that triggered this reallocation;
		// it had no previous placement, so it cannot "migrate".
		if old.node != 0 && old.node != rec.node {
			a.stats.Migrations++
			a.stats.MovedPEs += int64(rec.size)
			if a.observer != nil {
				a.observer(id, old.node, rec.node)
			}
		}
		newLoads.Place(rec.node)
	}
	if newLoads.Deferred() && !a.loads.Deferred() {
		newLoads.EndDeferred()
	}
	a.list = list
	a.placed = placed
	a.loads = newLoads
}

// depart implements Depart for self.
func (a *amState) depart(id task.ID, self Allocator) {
	if a.greedy != nil {
		a.greedy.Depart(id)
		return
	}
	a.activeSize -= int64(a.vacate(id, self).size)
}

// applyBatch implements ApplyBatch for self. Greedy mode gains nothing
// from batching (A_G reads the load tree on every arrival); copy mode
// defers the load tree, and the trigger is still evaluated per arrival,
// so batch and serial application reallocate at the same events.
func (a *amState) applyBatch(self Allocator, evs []task.Event) {
	if a.greedy != nil {
		ApplyEvents(self, evs)
		return
	}
	a.applyDeferred(self, evs)
}

// MaxLoad implements Allocator.
func (a *amState) MaxLoad() int {
	if a.greedy != nil {
		return a.greedy.MaxLoad()
	}
	return a.loads.MaxLoad()
}

// PELoads implements Allocator.
func (a *amState) PELoads() []int {
	if a.greedy != nil {
		return a.greedy.PELoads()
	}
	return a.loads.Loads()
}

// Placement implements Allocator.
func (a *amState) Placement(id task.ID) (tree.Node, bool) {
	if a.greedy != nil {
		return a.greedy.Placement(id)
	}
	return a.copyState.Placement(id)
}

// Active implements Allocator.
func (a *amState) Active() int {
	if a.greedy != nil {
		return a.greedy.Active()
	}
	return len(a.placed)
}

// ReallocStats implements Reallocator.
func (a *amState) ReallocStats() ReallocStats { return a.stats }

// EffectiveD implements Degradable.
func (a *amState) EffectiveD() int { return a.d }

// SetEffectiveD implements Degradable. Greedy-delegation instances have
// no reallocation machinery and refuse; raising d past the greedy bound
// on a copy-mode instance is allowed (it just reallocates ever rarer).
func (a *amState) SetEffectiveD(d int) bool {
	if a.greedy != nil || d < 0 {
		return false
	}
	a.d = d
	return true
}

// FailPE implements FaultTolerant.
func (a *amState) FailPE(pe int) []Migration {
	if a.greedy != nil {
		return a.greedy.FailPE(pe)
	}
	return a.failInCopies(pe, a.observer)
}

// RecoverPE implements FaultTolerant.
func (a *amState) RecoverPE(pe int) {
	if a.greedy != nil {
		a.greedy.RecoverPE(pe)
		return
	}
	a.copyState.RecoverPE(pe)
}

// FailedPEs implements FaultTolerant.
func (a *amState) FailedPEs() []int {
	if a.greedy != nil {
		return a.greedy.FailedPEs()
	}
	return a.faults.FailedPEs()
}

// ForcedStats implements FaultTolerant.
func (a *amState) ForcedStats() ForcedStats {
	if a.greedy != nil {
		return a.greedy.ForcedStats()
	}
	return a.faults.ForcedStats()
}
