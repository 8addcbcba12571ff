package loadtree

import (
	"math/rand"
	"testing"

	"partalloc/internal/tree"
)

// TestDeferredMatchesEager drives an eager tree and a deferred tree through
// the same random placement/removal stream in batches; after every batch
// the deferred tree must answer every aggregate query identically and pass
// the from-scratch invariant check.
func TestDeferredMatchesEager(t *testing.T) {
	for _, n := range []int{2, 16, 128} {
		m := tree.MustNew(n)
		eager := New(m)
		lazy := New(m)
		rng := rand.New(rand.NewSource(int64(n)))
		var placedNodes []tree.Node

		for batch := 0; batch < 20; batch++ {
			lazy.BeginDeferred()
			for op := 0; op < 50; op++ {
				if len(placedNodes) > 0 && rng.Intn(3) == 0 {
					i := rng.Intn(len(placedNodes))
					v := placedNodes[i]
					placedNodes = append(placedNodes[:i], placedNodes[i+1:]...)
					eager.Remove(v)
					lazy.Remove(v)
					continue
				}
				size := 1 << rng.Intn(m.Levels()+1)
				k := m.NumSubmachines(size)
				v := m.SubmachineAt(size, rng.Intn(k))
				placedNodes = append(placedNodes, v)
				eager.Place(v)
				lazy.Place(v)
			}
			// Queries mid-batch must flush transparently.
			if batch%3 == 0 {
				if got, want := lazy.MaxLoad(), eager.MaxLoad(); got != want {
					t.Fatalf("n=%d batch %d mid-batch MaxLoad = %d, eager %d", n, batch, got, want)
				}
			}
			lazy.EndDeferred()

			if got, want := lazy.MaxLoad(), eager.MaxLoad(); got != want {
				t.Fatalf("n=%d batch %d MaxLoad = %d, eager %d", n, batch, got, want)
			}
			for size := 1; size <= n; size *= 2 {
				gv, gl := lazy.LeftmostMinLoad(size)
				ev, el := eager.LeftmostMinLoad(size)
				if gv != ev || gl != el {
					t.Fatalf("n=%d batch %d LeftmostMinLoad(%d) = (%d,%d), eager (%d,%d)", n, batch, size, gv, gl, ev, el)
				}
			}
			gl, el := lazy.Loads(), eager.Loads()
			for p := range gl {
				if gl[p] != el[p] {
					t.Fatalf("n=%d batch %d PE %d load = %d, eager %d", n, batch, p, gl[p], el[p])
				}
			}
			lazy.CheckInvariants()
		}
	}
}

// TestDeferredCoverQueriesSkipFlush checks that cover-only queries answer
// correctly during a deferred batch without forcing a rebuild.
func TestDeferredCoverQueriesSkipFlush(t *testing.T) {
	m := tree.MustNew(8)
	lt := New(m)
	lt.BeginDeferred()
	lt.Place(tree.Node(1)) // whole machine
	lt.Place(m.LeafOf(3))
	if got := lt.PELoad(3); got != 2 {
		t.Errorf("PELoad(3) = %d, want 2", got)
	}
	if got := lt.CumulativeSize(); got != 9 {
		t.Errorf("CumulativeSize = %d, want 9", got)
	}
	if !lt.Deferred() {
		t.Error("tree left deferred mode without EndDeferred")
	}
	if lt.dirty == false {
		t.Error("cover-only queries should not have flushed the batch")
	}
	lt.EndDeferred()
	if got := lt.MaxLoad(); got != 2 {
		t.Errorf("MaxLoad = %d, want 2", got)
	}
}

// TestResetMatchesNew checks that a Reset tree, eager or deferred, answers
// like a fresh one and, refilled, like a fresh one given the same tasks.
func TestResetMatchesNew(t *testing.T) {
	m := tree.MustNew(32)
	rng := rand.New(rand.NewSource(9))
	randomNode := func() tree.Node {
		size := 1 << rng.Intn(m.Levels()+1)
		return m.SubmachineAt(size, rng.Intn(m.NumSubmachines(size)))
	}
	for _, deferred := range []bool{false, true} {
		lt := New(m)
		for i := 0; i < 40; i++ {
			lt.Place(randomNode())
		}
		if deferred {
			lt.BeginDeferred()
		}
		lt.Reset()
		if lt.Active() != 0 || lt.MaxLoad() != 0 || lt.CumulativeSize() != 0 {
			t.Fatalf("deferred=%v: Reset left Active %d, MaxLoad %d, CumulativeSize %d",
				deferred, lt.Active(), lt.MaxLoad(), lt.CumulativeSize())
		}
		lt.CheckInvariants()
		fresh := New(m)
		for i := 0; i < 40; i++ {
			v := randomNode()
			lt.Place(v)
			fresh.Place(v)
		}
		lt.EndDeferred()
		lt.CheckInvariants()
		for size := 1; size <= m.N(); size *= 2 {
			gv, gl := lt.LeftmostMinLoad(size)
			wv, wl := fresh.LeftmostMinLoad(size)
			if gv != wv || gl != wl || lt.MaxLoad() != fresh.MaxLoad() {
				t.Fatalf("deferred=%v size %d: refilled tree answers (%d, %d), fresh (%d, %d)", deferred, size, gv, gl, wv, wl)
			}
		}
	}
}
