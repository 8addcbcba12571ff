package core

import (
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
	// reallocate empties the layout before it places anything, so a
	// doomed A_R must fail first. Every active task already sits on a
	// healthy submachine of its size, so only the arrival can be
	// unplaceable.
	a.list.CheckHost(t.Size)
	a.placed[t.ID] = placementRec{copyIdx: -1, node: 0, size: t.Size}
	a.reallocate()
	a.sinceRealo = 0
	return a.placed[t.ID].node
}

// reallocate runs procedure A_R over the active set in place: the copy
// list and the load tree are emptied and refilled in their own memory,
// and only the ordered ID slice and the placement map are new. Tasks
// are placed, counted and reported to the observer in A_R's order. A
// task "migrates" when its submachine root changes; moving between
// copies at the same node keeps the same PEs and is free.
//
// DecreasingSize without failed PEs takes Lemma 1's closed form: first
// fit of power-of-two sizes in decreasing order is prefix-sum packing, so
// with off the total size placed before a task, it lands in copy off/N
// at the (off mod N)/size-th submachine of its size, and every copy but
// the last ends full. ArrivalOrder and layouts with blocked PEs first-fit
// through List.Place, as ReallocateAll does.
func (a *amState) reallocate() {
	ids := reallocOrder(a.m, a.placed, a.order)
	packed := a.order == DecreasingSize && len(a.faults.failed) == 0
	a.list.Reset()
	// Refill the load tree with deferred aggregates, one O(N log N) flush
	// at the end; mid-batch, the batch's EndDeferred does that flush.
	midBatch := a.loads.Deferred()
	a.loads.BeginDeferred()
	a.loads.Reset()
	placed := make(map[task.ID]placementRec, len(ids))
	n, off := a.m.N(), 0
	for _, id := range ids {
		old := a.placed[id]
		rec := placementRec{size: old.size}
		if packed {
			rec.copyIdx, rec.node = off/n, a.m.SubmachineAt(rec.size, off%n/rec.size)
			if rec.copyIdx == a.list.Len() {
				a.list.Grow(1)
			}
			a.list.OccupyAt(rec.copyIdx, rec.node)
			off += rec.size
		} else {
			rec.copyIdx, rec.node = a.list.Place(rec.size)
		}
		placed[id] = rec
		a.loads.Place(rec.node)
		// A zero old node marks the arrival that triggered this
		// reallocation; it had no previous placement, so it cannot
		// "migrate".
		if old.node != 0 && old.node != rec.node {
			a.stats.Migrations++
			a.stats.MovedPEs += int64(rec.size)
			if a.observer != nil {
				a.observer(id, old.node, rec.node)
			}
		}
	}
	if packed {
		a.list.MarkFull(a.list.Len() - 1)
	}
	a.list.ReleaseSpare()
	if !midBatch {
		a.loads.EndDeferred()
	}
	a.stats.Reallocations++
	a.placed = placed
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
