package core

import (
	"math/bits"
	"slices"
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
// the fresh copy list and the new placements. The allocators run the same
// procedure in place (amState.reallocate); this fresh-list form is its
// reference.
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

// reallocOrder returns the active task IDs as a fresh slice in A_R's
// order: size descending with ties by ascending ID for DecreasingSize,
// ascending ID for ArrivalOrder. Sizes are powers of two, so
// DecreasingSize needs no comparison across sizes: a counting pass over
// the log N + 1 size classes gives each class its range of the slice, and
// only each class is sorted.
func reallocOrder(m *tree.Machine, placed map[task.ID]placementRec, order ReallocOrder) []task.ID {
	ids := make([]task.ID, len(placed))
	if order == ArrivalOrder {
		i := 0
		for id := range placed {
			ids[i] = id
			i++
		}
		slices.Sort(ids)
		return ids
	}
	// Class c holds the tasks of size N/2^c; start[c] is its first index.
	lv := m.Levels()
	var start [64]int
	for _, rec := range placed {
		start[lv-bits.TrailingZeros(uint(rec.size))+1]++
	}
	for c := 1; c <= lv+1; c++ {
		start[c] += start[c-1]
	}
	next := start
	for id, rec := range placed {
		c := lv - bits.TrailingZeros(uint(rec.size))
		ids[next[c]] = id
		next[c]++
	}
	for c := 0; c <= lv; c++ {
		slices.Sort(ids[start[c]:start[c+1]])
	}
	return ids
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
