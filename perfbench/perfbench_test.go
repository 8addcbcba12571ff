package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"testing"

	"partalloc"
)

// streamBytes serializes every tenant's definition and stream.
func streamBytes(w *workload) []byte {
	var b bytes.Buffer
	for _, t := range w.Tenants {
		b.WriteString(t.ID)
		b.WriteString(t.Algo.String())
		put := func(v int64) { b.Write(binary.LittleEndian.AppendUint64(nil, uint64(v))) }
		for _, v := range []int64{int64(t.N), int64(t.D), t.Seed, int64(t.Owner), int64(len(t.Events))} {
			put(v)
		}
		for _, e := range t.Events {
			put(int64(e.Kind))
			put(int64(e.Task))
			put(int64(e.Size))
			put(int64(math.Float64bits(e.Time)))
		}
	}
	return b.Bytes()
}

func TestGenerateDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7)
		c, _ := generate(name, 8)
		if !bytes.Equal(streamBytes(a), streamBytes(b)) {
			t.Errorf("%s: seed 7 generated different streams twice", name)
		}
		if bytes.Equal(streamBytes(a), streamBytes(c)) {
			t.Errorf("%s: seeds 7 and 8 generated identical streams", name)
		}
	}
	if _, err := generate("no-such-workload", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

var algorithms = []partalloc.Algorithm{
	partalloc.AlgoGreedy, partalloc.AlgoBasic, partalloc.AlgoConstant, partalloc.AlgoPeriodic,
	partalloc.AlgoLazy, partalloc.AlgoRandom, partalloc.AlgoTwoChoice, partalloc.AlgoGreedyRandomTie,
}

// TestDecoratorForwardsExactly checks that a decorated allocator has
// exactly the optional interfaces of the allocator it wraps, and that
// every algorithm a workload uses can be decorated.
func TestDecoratorForwardsExactly(t *testing.T) {
	used := map[partalloc.Algorithm]bool{}
	for _, name := range workloadNames {
		w, _ := generate(name, 1)
		for _, tn := range w.Tenants {
			used[tn.Algo] = true
		}
	}
	w, _ := generate("ingest-rand", 1)
	tt := newTracer(w).tenants[w.Tenants[0].ID]
	for _, algo := range algorithms {
		def := tenantDef{Algo: algo, N: 64, D: 1, Seed: 3}
		var opts []partalloc.Option
		switch algo {
		case partalloc.AlgoTwoChoice, partalloc.AlgoGreedyRandomTie:
			opts = []partalloc.Option{partalloc.WithSeed(3)}
		default:
			opts = def.options()
		}
		a, err := partalloc.New(algo, partalloc.MustNewMachine(64), opts...)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		d, err := decorate(a, tt)
		if err != nil {
			if used[algo] {
				t.Errorf("%v is used by a workload but cannot be decorated: %v", algo, err)
			}
			continue
		}
		if got, want := interfacesOf(d), interfacesOf(a); got != want {
			t.Errorf("%v: decorator has %s, allocator has %s", algo, interfaceNames(got), interfaceNames(want))
		}
	}
}

// shrink cuts every stream to its first n events (a prefix of a valid
// stream is valid) so a test round is quick.
func shrink(t *testing.T, name string, n int) (*workload, []expect) {
	t.Helper()
	w, err := generate(name, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Tenants {
		if ev := w.Tenants[i].Events; len(ev) > n {
			w.Tenants[i].Events = ev[:n]
		}
	}
	exp, err := simulate(w)
	if err != nil {
		t.Fatal(err)
	}
	return w, exp
}

// TestTracedRoundsMatchUntraced checks that the traced internal engine
// and the facade engine end every workload in byte-identical canonical
// tenant states, and that every round passes its correctness checks.
func TestTracedRoundsMatchUntraced(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, exp := shrink(t, name, 3000)
			dir := t.TempDir()
			plain := runRound(w, exp, plainRound, filepath.Join(dir, "plain"))
			kinds := []roundKind{tracedRound}
			if w.Engine.Obs {
				kinds = append(kinds, noObsRound)
			}
			if plain.failed > 0 {
				t.Fatalf("plain round failed: %v", plain.errs)
			}
			for _, k := range kinds {
				r := runRound(w, exp, k, filepath.Join(dir, "other"))
				if r.failed > 0 {
					t.Fatalf("round kind %d failed: %v", k, r.errs)
				}
				if !bytes.Equal(r.canon, plain.canon) {
					t.Errorf("round kind %d: canonical tenant stats differ from the untraced round's", k)
				}
			}
		})
	}
}

// TestSpansNest checks the traced round's span tree: IDs are unique,
// every parent is a recorded top-level span of the same request that
// encloses the child, and placement moves are the only root-level
// decorator spans.
func TestSpansNest(t *testing.T) {
	w, exp := shrink(t, "durable-skew", 6000)
	r := runRound(w, exp, tracedRound, filepath.Join(t.TempDir(), "traced"))
	if r.failed > 0 {
		t.Fatalf("traced round failed: %v", r.errs)
	}
	byID := map[uint64]span{}
	for _, s := range r.spans {
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, spanNames[s.Kind])
		}
		byID[s.ID] = s
	}
	kinds := map[spanKind]int{}
	for _, s := range r.spans {
		kinds[s.Kind]++
		if s.Parent == 0 {
			if s.Kind >= spanApply && s.Kind != spanReboxEncode && s.Kind != spanReboxRestore {
				t.Errorf("decorator span %d (%s) has no parent", s.ID, spanNames[s.Kind])
			}
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Errorf("span %d (%s): parent %d not recorded", s.ID, spanNames[s.Kind], s.Parent)
		case p.Parent != 0 || s.Req != p.Req:
			t.Errorf("span %d (%s): parent %d is not the top-level span of request %d", s.ID, spanNames[s.Kind], s.Parent, s.Req)
		case s.Start < p.Start || s.End > p.End:
			t.Errorf("span %d (%s) [%d,%d] lies outside its parent %s [%d,%d]",
				s.ID, spanNames[s.Kind], s.Start, s.End, spanNames[p.Kind], p.Start, p.End)
		}
	}
	for _, k := range []spanKind{spanSubmit, spanFlush, spanStats, spanFlushAll, spanRecover, spanApply, spanSnapshot, spanRestore} {
		if kinds[k] == 0 {
			t.Errorf("no %s spans recorded", spanNames[k])
		}
	}
}
