package core

import (
	"math/rand"

	"partalloc/internal/loadtree"
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// nodeState is the state kernel of the allocators that place each task
// directly on a submachine of the machine — A_G, its random-tie ablation,
// A_Rand and two-choice: the load tree and the task→node placements.
// Each allocator adds only its choice rule; the kernel does the
// bookkeeping around it and answers the Allocator queries.
type nodeState struct {
	m      *tree.Machine
	loads  *loadtree.Tree
	placed map[task.ID]tree.Node
}

func newNodeState(m *tree.Machine) nodeState {
	return nodeState{m: m, loads: loadtree.New(m), placed: make(map[task.ID]tree.Node)}
}

// Machine implements Allocator.
func (s *nodeState) Machine() *tree.Machine { return s.m }

// admit validates an arrival before self's choice rule runs.
func (s *nodeState) admit(t task.Task, self Allocator) {
	checkArrival(s.m, t)
	if _, dup := s.placed[t.ID]; dup {
		panicDuplicate(t.ID, self.Name())
	}
}

// place records t's placement at v.
func (s *nodeState) place(id task.ID, v tree.Node) tree.Node {
	s.loads.Place(v)
	s.placed[id] = v
	return v
}

// depart releases id's submachine; self names the allocator in the
// unknown-task panic.
func (s *nodeState) depart(id task.ID, self Allocator) {
	v, ok := s.placed[id]
	if !ok {
		panicUnknown(id, self)
	}
	s.loads.Remove(v)
	delete(s.placed, id)
}

// MaxLoad implements Allocator.
func (s *nodeState) MaxLoad() int { return s.loads.MaxLoad() }

// PELoads implements Allocator.
func (s *nodeState) PELoads() []int { return s.loads.Loads() }

// Placement implements Allocator.
func (s *nodeState) Placement(id task.ID) (tree.Node, bool) {
	v, ok := s.placed[id]
	return v, ok
}

// Active implements Allocator.
func (s *nodeState) Active() int { return len(s.placed) }

// seededState is nodeState plus the counted PRNG of the three seeded
// allocators (A_Rand, two-choice, random-tie greedy), whose snapshots are
// the same RNG-position-plus-placements body under different tags.
type seededState struct {
	nodeState
	rng *rand.Rand
	src *countingSource // rng's source, counted so Snapshot can record PRNG position
}

func newSeededState(m *tree.Machine, seed int64) seededState {
	src := newCountingSource(seed)
	return seededState{nodeState: newNodeState(m), rng: rand.New(src), src: src}
}
