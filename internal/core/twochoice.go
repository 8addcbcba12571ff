package core

import (
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// TwoChoice is the balanced-allocations baseline (Azar, Broder, Karlin,
// Upfal, STOC'94 — the paper's related work [2]) adapted to submachine
// allocation: on arrival, draw two submachines of the task's size
// uniformly at random and place the task on the less loaded one (leftmost
// on a tie). It never reallocates.
//
// It sits between the oblivious A_Rand and the fully load-aware A_G: two
// random probes instead of a machine-wide scan, yet the classic
// power-of-two-choices effect drops the expected excess load from
// Θ(log N/log log N) to Θ(log log N) on the balls-into-bins workload —
// experiment E6 shows the separation.
type TwoChoice struct{ seededState }

// NewTwoChoice returns the two-choice allocator with the given seed.
func NewTwoChoice(m *tree.Machine, seed int64) *TwoChoice {
	return &TwoChoice{newSeededState(m, seed)}
}

// TwoChoiceFactory builds two-choice allocators with the given seed.
func TwoChoiceFactory(seed int64) Factory {
	return Factory{Name: "A_2choice", New: func(m *tree.Machine) Allocator { return NewTwoChoice(m, seed) }}
}

// Name implements Allocator.
func (t *TwoChoice) Name() string { return "A_2choice" }

// Arrive implements Allocator with the two-choice rule.
func (t *TwoChoice) Arrive(tk task.Task) tree.Node {
	t.admit(tk, t)
	k := t.m.NumSubmachines(tk.Size)
	a := t.m.SubmachineAt(tk.Size, t.rng.Intn(k))
	b := t.m.SubmachineAt(tk.Size, t.rng.Intn(k))
	v := a
	la, lb := t.loads.SubmachineLoad(a), t.loads.SubmachineLoad(b)
	if lb < la || (lb == la && b < a) {
		v = b
	}
	return t.place(tk.ID, v)
}

// Depart implements Allocator.
func (t *TwoChoice) Depart(id task.ID) { t.depart(id, t) }
