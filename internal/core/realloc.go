package core

import (
	"sort"

	"partalloc/internal/copies"
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// ReallocOrder selects how the reallocation procedure orders tasks before
// first-fit placement.
type ReallocOrder int

const (
	// DecreasingSize is the paper's A_R order (§3): sort by decreasing
	// size. First-fit-decreasing over complete subtrees leaves no vacancy
	// except possibly in the last copy (Lemma 1), so the resulting load is
	// exactly ⌈S/N⌉.
	DecreasingSize ReallocOrder = iota
	// ArrivalOrder is the ablation variant: first-fit in task-ID (arrival)
	// order. Lemma 1 does not hold for it; the E5 ablation table shows the
	// fragmentation it admits.
	ArrivalOrder
)

func (o ReallocOrder) String() string {
	if o == ArrivalOrder {
		return "arrival-order"
	}
	return "decreasing-size"
}

// ReallocateAll is the paper's reallocation procedure A_R (§3): take the
// active task set, sort it (per order), and first-fit each task into the
// first copy of T with a vacant submachine of its size, creating copies as
// needed; within a copy, take the leftmost vacant submachine. It returns
// the fresh copy list and the new placements.
//
// The fresh list blocks every PE in failedPEs before placement, so no
// task in the rebuilt layout covers a failed PE; it panics if some task
// has no healthy submachine of its size. Ties in size are broken by task
// ID so the procedure is deterministic.
func ReallocateAll(m *tree.Machine, tasks []task.Task, order ReallocOrder, failedPEs []int) (*copies.List, map[task.ID]placementRec) {
	sorted := make([]task.Task, len(tasks))
	copy(sorted, tasks)
	switch order {
	case DecreasingSize:
		sortDecreasing(sorted)
	case ArrivalOrder:
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	}
	list := copies.NewList(m)
	for _, pe := range failedPEs {
		list.Block(m.LeafOf(pe))
	}
	placed := make(map[task.ID]placementRec, len(sorted))
	for _, t := range sorted {
		ci, v := list.Place(t.Size)
		placed[t.ID] = placementRec{copyIdx: ci, node: v, size: t.Size}
	}
	return list, placed
}

// sortDecreasing puts tasks in A_R's first-fit-decreasing order: size
// descending, ties by ascending ID. Tasks evicted by a PE failure are
// re-placed in the same order, so forced moves pack like a reallocation.
func sortDecreasing(ts []task.Task) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Size != ts[j].Size {
			return ts[i].Size > ts[j].Size
		}
		return ts[i].ID < ts[j].ID
	})
}
