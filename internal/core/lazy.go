package core

import (
	"fmt"

	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// Lazy is a d-reallocation algorithm with *on-demand* reallocation timing.
//
// The paper's A_M reallocates eagerly at the first arrival where the size
// accumulated since the last reallocation reaches d·N. The model, however,
// only requires that consecutive reallocations be at least d·N arrived
// size apart — the algorithm may *hold* an earned reallocation until it is
// useful. That is exactly what the paper's §2 example exploits: on σ* a
// 1-reallocation algorithm reallocates at t5's arrival and achieves load
// 1, while eager A_M(d=1) spends its reallocation at t4 and incurs load 2.
//
// Lazy places arrivals with A_B, and reallocates (procedure A_R) only when
// both (a) the A_B placement would create a new copy, and (b) at least d·N
// size has arrived since the last reallocation. It satisfies the same
// Theorem 4.2 bound as A_M — after a reallocation there are at most L*
// copies, and every new copy is created while the accumulated size is
// below d·N, so at most d extra copies exist at any time — and in practice
// reallocates far less often (see experiment E8).
//
// Unlike Periodic, Lazy delegates to A_G only for d = ∞: a finite d at or
// above the greedy bound keeps the copy machinery and its on-demand
// trigger.
type Lazy struct{ amState }

// NewLazy returns the lazy d-reallocation algorithm on machine m. d < 0
// encodes ∞. d = 0 is allowed: the budget is always available, so it
// reallocates whenever A_B would grow the copy count, which also achieves
// the optimal load L*.
func NewLazy(m *tree.Machine, d int, order ReallocOrder) *Lazy {
	return &Lazy{newAMState(m, d, order, d < 0)}
}

// LazyFactory builds Lazy(d) allocators.
func LazyFactory(d int) Factory {
	return Factory{
		Name: fmt.Sprintf("A_M-lazy(d=%d)", d),
		New:  func(m *tree.Machine) Allocator { return NewLazy(m, d, DecreasingSize) },
	}
}

// Name implements Allocator.
func (l *Lazy) Name() string {
	if l.d < 0 {
		return "A_M-lazy(d=inf)"
	}
	return fmt.Sprintf("A_M-lazy(d=%d)", l.d)
}

// Arrive implements Allocator.
func (l *Lazy) Arrive(t task.Task) tree.Node {
	if l.greedy != nil {
		return l.greedy.Arrive(t)
	}
	l.admit(t, l)
	// Would A_B need a new copy, and is the reallocation budget earned?
	needNew := !l.list.HasVacant(t.Size)
	// Reallocating is only worthwhile if compaction actually avoids the new
	// copy: the active set (new task included) must fit in the copies that
	// already exist. Otherwise the budget is saved for later.
	n64 := int64(l.m.N())
	helps := (l.activeSize+n64-1)/n64 <= int64(l.list.Len())
	return l.settle(t, needNew && helps && l.sinceRealo >= int64(l.d)*n64)
}

// Depart implements Allocator.
func (l *Lazy) Depart(id task.ID) { l.depart(id, l) }

// ApplyBatch implements BatchApplier. The trigger reads the copy list,
// never the load tree, so deferring the aggregates cannot change any
// decision.
func (l *Lazy) ApplyBatch(evs []task.Event) { l.applyBatch(l, evs) }

// LazyRealloc implements Degradable; Lazy's trigger is always on-demand.
func (l *Lazy) LazyRealloc() bool { return true }

// SetLazyRealloc implements Degradable. Lazy cannot leave its on-demand
// trigger, so only lazy=true "takes effect".
func (l *Lazy) SetLazyRealloc(lazy bool) bool {
	return l.greedy == nil && lazy
}
