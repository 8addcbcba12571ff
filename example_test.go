package partalloc_test

import (
	"fmt"

	"partalloc"
)

// ExampleSimulate runs the paper's worked example (Figure 1) through the
// greedy algorithm and through a 1-reallocation algorithm.
func ExampleSimulate() {
	seq := partalloc.Figure1Sequence()

	greedy := partalloc.MustNew(partalloc.AlgoGreedy, partalloc.MustNewMachine(4))
	g := partalloc.Simulate(greedy, seq, partalloc.SimOptions{})

	lazy := partalloc.MustNew(partalloc.AlgoLazy, partalloc.MustNewMachine(4), partalloc.WithD(1))
	l := partalloc.Simulate(lazy, seq, partalloc.SimOptions{})

	fmt.Printf("greedy: load %d (optimal %d)\n", g.MaxLoad, g.LStar)
	fmt.Printf("1-reallocation: load %d after %d reallocation\n", l.MaxLoad, l.Realloc.Reallocations)
	// Output:
	// greedy: load 2 (optimal 1)
	// 1-reallocation: load 1 after 1 reallocation
}

// ExampleNew_periodic shows the d-reallocation algorithm A_M, built with
// New, meeting its Theorem 4.2 bound on a random workload.
func ExampleNew_periodic() {
	const n, d = 64, 2
	m := partalloc.MustNewMachine(n)
	a := partalloc.MustNew(partalloc.AlgoPeriodic, m, partalloc.WithD(d))
	seq := partalloc.SaturationWorkload(partalloc.SaturationConfig{N: n, Events: 2000, Seed: 1})
	res := partalloc.Simulate(a, seq, partalloc.SimOptions{})

	bound := partalloc.UpperBound(n, d) * res.LStar
	fmt.Printf("load %d within bound %d: %v\n", res.MaxLoad, bound, res.MaxLoad <= bound)
	// Output:
	// load 3 within bound 6: true
}

// ExampleRunAdversary demonstrates the Theorem 4.3 lower-bound
// construction forcing the greedy algorithm to its bound while the
// optimal load stays 1.
func ExampleRunAdversary() {
	m := partalloc.MustNewMachine(1024)
	res := partalloc.RunAdversary(partalloc.MustNew(partalloc.AlgoGreedy, m), -1)
	fmt.Printf("forced load %d, optimal %d, promised ≥ %d\n",
		res.FinalLoad, res.OptimalLoad, res.LowerBound)
	// Output:
	// forced load 6, optimal 1, promised ≥ 6
}

// ExampleNewSequenceBuilder builds a custom arrival/departure sequence.
func ExampleNewSequenceBuilder() {
	b := partalloc.NewSequenceBuilder()
	web := b.At(0).Arrive(8)
	b.At(1).Arrive(4)
	b.At(5).Depart(web)
	seq := b.Sequence()
	fmt.Printf("events %d, s(σ) = %d, L* on N=16: %d\n",
		len(seq.Events), seq.Size(), seq.OptimalLoad(16))
	// Output:
	// events 3, s(σ) = 12, L* on N=16: 1
}
