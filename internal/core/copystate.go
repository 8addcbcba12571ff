package core

import (
	"partalloc/internal/copies"
	"partalloc/internal/loadtree"
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// placementRec locates a task inside a copy list.
type placementRec struct {
	copyIdx int
	node    tree.Node
	size    int
}

// copyState is the state kernel of the copies-based allocators (A_B, and
// A_M/A_C/A_M-lazy between reallocations): the ordered copy list, the
// load tree, each task's copy-and-node placement, and the fault ledger.
// It owns first-fit placement over copies, the Allocator queries, the
// fault hooks, the deferred-load-tree batch wrapper, and the copy-mode
// snapshot body; an allocator built on it adds only its arrival rule.
type copyState struct {
	m      *tree.Machine
	list   *copies.List
	loads  *loadtree.Tree
	placed map[task.ID]placementRec
	faults faultSet
}

func newCopyState(m *tree.Machine) copyState {
	return copyState{
		m:      m,
		list:   copies.NewList(m),
		loads:  loadtree.New(m),
		placed: make(map[task.ID]placementRec),
	}
}

// Machine implements Allocator.
func (c *copyState) Machine() *tree.Machine { return c.m }

// admit validates an arrival before self's placement rule runs.
func (c *copyState) admit(t task.Task, self Allocator) {
	checkArrival(c.m, t)
	if _, dup := c.placed[t.ID]; dup {
		panicDuplicate(t.ID, self.Name())
	}
}

// place puts a task first-fit into the leftmost vacant submachine of the
// first copy that has one, growing the list if none does.
func (c *copyState) place(id task.ID, size int) tree.Node {
	ci, v := c.list.Place(size)
	c.loads.Place(v)
	c.placed[id] = placementRec{copyIdx: ci, node: v, size: size}
	return v
}

// vacate releases id's submachine and returns its record; self names the
// allocator in the unknown-task panic.
func (c *copyState) vacate(id task.ID, self Allocator) placementRec {
	rec, ok := c.placed[id]
	if !ok {
		panicUnknown(id, self)
	}
	c.list.Vacate(rec.copyIdx, rec.node)
	c.loads.Remove(rec.node)
	delete(c.placed, id)
	return rec
}

// MaxLoad implements Allocator.
func (c *copyState) MaxLoad() int { return c.loads.MaxLoad() }

// PELoads implements Allocator.
func (c *copyState) PELoads() []int { return c.loads.Loads() }

// Placement implements Allocator.
func (c *copyState) Placement(id task.ID) (tree.Node, bool) {
	rec, ok := c.placed[id]
	return rec.node, ok
}

// Active implements Allocator.
func (c *copyState) Active() int { return len(c.placed) }

// failInCopies implements FailPE: vacate every task covering the failed
// leaf, block the leaf in every copy (and all future ones), then re-place
// the evicted tasks first-fit-decreasing through the existing list — the
// same machinery procedure A_R uses, so the post-failure layout obeys the
// same packing discipline. A non-nil observer sees each forced move.
func (c *copyState) failInCopies(pe int, observer MigrationObserver) []Migration {
	c.faults.markFailed(c.m, pe)
	leaf := c.m.LeafOf(pe)
	var victims []task.Task
	for id, rec := range c.placed {
		if c.m.Contains(rec.node, leaf) {
			victims = append(victims, task.Task{ID: id, Size: rec.size})
		}
	}
	sortDecreasing(victims)
	for _, t := range victims {
		rec := c.placed[t.ID]
		c.list.Vacate(rec.copyIdx, rec.node)
		c.loads.Remove(rec.node)
	}
	c.list.Block(leaf)
	migs := make([]Migration, 0, len(victims))
	for _, t := range victims {
		old := c.placed[t.ID]
		v := c.place(t.ID, t.Size)
		migs = append(migs, Migration{ID: t.ID, From: old.node, To: v})
		if observer != nil {
			observer(t.ID, old.node, v)
		}
	}
	c.faults.recordMigrations(migs, c.m)
	return migs
}

// RecoverPE implements FaultTolerant.
func (c *copyState) RecoverPE(pe int) {
	c.faults.markRecovered(c.m, pe)
	c.list.Unblock(c.m.LeafOf(pe))
}

// FailedPEs implements FaultTolerant.
func (c *copyState) FailedPEs() []int { return c.faults.FailedPEs() }

// ForcedStats implements FaultTolerant.
func (c *copyState) ForcedStats() ForcedStats { return c.faults.ForcedStats() }

// applyDeferred applies evs through self with the load tree in deferred
// mode. First-fit placement never reads the load tree, so deferring its
// aggregates cannot change a decision. A reallocation mid-batch refills
// the same tree and leaves it deferred (see amState.reallocate), so the
// closing EndDeferred flushes the reallocated layout too.
func (c *copyState) applyDeferred(self Allocator, evs []task.Event) {
	c.loads.BeginDeferred()
	ApplyEvents(self, evs)
	c.loads.EndDeferred()
}
