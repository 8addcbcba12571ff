package core

import (
	"fmt"

	"partalloc/internal/mathx"
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// Periodic is the d-reallocation algorithm A_M (§4.1). Per the paper:
//
//   - if d ≥ ⌈½(log N + 1)⌉ (or d = ∞, encoded as d < 0), reallocation
//     cannot beat greedy's bound, so it simply runs A_G and never
//     reallocates;
//   - otherwise it places arrivals with A_B, and whenever the cumulative
//     size of arrivals since the last reallocation reaches d·N it
//     reallocates every active task with procedure A_R
//     (first-fit-decreasing into fresh copies), the arrival that crossed
//     the threshold included.
//
// Theorem 4.2: its load is at most min{d+1, ⌈½(log N+1)⌉} · L*.
// With d = 0 it reallocates on every arrival and is exactly the optimal
// algorithm A_C of §3 (Theorem 3.1: load = L*).
type Periodic struct {
	amState
	lazy bool // on-demand trigger (Degradable), as in Lazy
}

// NewPeriodic returns A_M with reallocation parameter d on machine m.
// d < 0 encodes d = ∞ (never reallocate). The order parameter selects the
// paper's first-fit-decreasing (DecreasingSize) or the ablation
// ArrivalOrder for the reallocation procedure.
func NewPeriodic(m *tree.Machine, d int, order ReallocOrder) *Periodic {
	greedyMode := d < 0 || d >= mathx.GreedyBound(m.N())
	return &Periodic{amState: newAMState(m, d, order, greedyMode)}
}

// NewConstant returns the 0-reallocation algorithm A_C of §3: A_M with
// d = 0, which reallocates all active tasks on every arrival and achieves
// the optimal load L* (Theorem 3.1).
func NewConstant(m *tree.Machine) *Periodic {
	return NewPeriodic(m, 0, DecreasingSize)
}

// PeriodicFactory builds A_M(d) allocators.
func PeriodicFactory(d int) Factory {
	return Factory{
		Name: fmt.Sprintf("A_M(d=%d)", d),
		New:  func(m *tree.Machine) Allocator { return NewPeriodic(m, d, DecreasingSize) },
	}
}

// ConstantFactory builds A_C allocators.
func ConstantFactory() Factory {
	return Factory{Name: "A_C", New: func(m *tree.Machine) Allocator { return NewConstant(m) }}
}

// D returns the reallocation parameter (-1 for ∞).
func (p *Periodic) D() int { return p.d }

// Name implements Allocator.
func (p *Periodic) Name() string {
	if p.d == 0 {
		return "A_C"
	}
	if p.d < 0 {
		return "A_M(d=inf)"
	}
	return fmt.Sprintf("A_M(d=%d)", p.d)
}

// Arrive implements Allocator.
func (p *Periodic) Arrive(t task.Task) tree.Node {
	if p.greedy != nil {
		return p.greedy.Arrive(t)
	}
	p.admit(t, p)
	return p.settle(t, p.shouldReallocate(t))
}

// shouldReallocate decides whether t's arrival fires procedure A_R. The
// eager trigger is the paper's A_M rule (accumulated size reaches d·N;
// with d = 0 that is every arrival); the lazy trigger additionally holds
// the earned reallocation until A_B would grow the copy count and
// compaction would actually avoid that — Lazy's exact condition, so a
// lazy-mode Periodic tracks Lazy move for move. Callers have already
// added t to sinceRealo and activeSize.
func (p *Periodic) shouldReallocate(t task.Task) bool {
	if p.sinceRealo < int64(p.d)*int64(p.m.N()) {
		return false
	}
	if !p.lazy {
		return true
	}
	n64 := int64(p.m.N())
	needNew := !p.list.HasVacant(t.Size)
	helps := (p.activeSize+n64-1)/n64 <= int64(p.list.Len())
	return needNew && helps
}

// Depart implements Allocator.
func (p *Periodic) Depart(id task.ID) { p.depart(id, p) }

// ApplyBatch implements BatchApplier.
func (p *Periodic) ApplyBatch(evs []task.Event) { p.applyBatch(p, evs) }

// LazyRealloc implements Degradable.
func (p *Periodic) LazyRealloc() bool { return p.lazy }

// SetLazyRealloc implements Degradable.
func (p *Periodic) SetLazyRealloc(lazy bool) bool {
	if p.greedy != nil {
		return false
	}
	p.lazy = lazy
	return true
}

// UsesGreedy reports whether this instance delegates to A_G (d at or above
// the greedy bound).
func (p *Periodic) UsesGreedy() bool { return p.greedy != nil }
