package core

import (
	"testing"

	"partalloc/internal/mathx"
	"partalloc/internal/tree"
)

// TestOptionalInterfaces pins which optional interfaces each
// constructor's result implements. The engine and the benchmark's
// timing decorator dispatch on these type assertions, so an allocator
// silently gaining one (say, ApplyBatch promoted through an embedded
// state kernel) or losing one changes their behaviour.
func TestOptionalInterfaces(t *testing.T) {
	const n = 16
	bound := mathx.GreedyBound(n)
	type ifaces struct{ realloc, observe, degrade, fault, batch, checkpoint bool }
	all := ifaces{true, true, true, true, true, true}
	cases := []struct {
		name string
		a    Allocator
		want ifaces
	}{
		{"A_G", NewGreedy(tree.MustNew(n)), ifaces{fault: true, checkpoint: true}},
		{"A_B", NewBasic(tree.MustNew(n)), ifaces{fault: true, batch: true, checkpoint: true}},
		{"A_C", NewConstant(tree.MustNew(n)), all},
		{"A_M(d=2)", NewPeriodic(tree.MustNew(n), 2, DecreasingSize), all},
		{"A_M(d=inf)", NewPeriodic(tree.MustNew(n), -1, DecreasingSize), all},
		{"A_M-lazy(d=2)", NewLazy(tree.MustNew(n), 2, DecreasingSize), all},
		{"A_M-lazy(d=inf)", NewLazy(tree.MustNew(n), -1, DecreasingSize), all},
		{"A_M-lazy(d=bound)", NewLazy(tree.MustNew(n), bound, DecreasingSize), all},
		{"A_Rand", NewRandom(tree.MustNew(n), 1), ifaces{batch: true, checkpoint: true}},
		{"A_2choice", NewTwoChoice(tree.MustNew(n), 1), ifaces{checkpoint: true}},
		{"A_G-randtie", NewGreedyRandomTie(tree.MustNew(n), 1), ifaces{checkpoint: true}},
	}
	for _, tc := range cases {
		_, realloc := tc.a.(Reallocator)
		_, observe := tc.a.(Observable)
		_, degrade := tc.a.(Degradable)
		_, fault := tc.a.(FaultTolerant)
		_, batch := tc.a.(BatchApplier)
		_, checkpoint := tc.a.(Checkpointable)
		got := ifaces{realloc, observe, degrade, fault, batch, checkpoint}
		if got != tc.want {
			t.Errorf("%s: implements %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
