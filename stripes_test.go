package partalloc_test

import (
	"runtime"
	"testing"

	"partalloc"
	"partalloc/internal/engine"
	"partalloc/internal/mathx"
)

// TestDefaultShardsScaleWithGOMAXPROCS pins the default stripe count,
// CeilPow2(16·GOMAXPROCS) capped at 256, on the internal engine and on
// the facade.
func TestDefaultShardsScaleWithGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range []int{1, 2, 3, 8, 16, 32} {
		runtime.GOMAXPROCS(p)
		want := min(mathx.CeilPow2(16*p), 256)
		if got := len(engine.New(engine.Config{}).ShardStats()); got != want {
			t.Errorf("GOMAXPROCS=%d: engine.New(Config{}) has %d shards, want %d", p, got, want)
		}
		eng, err := partalloc.NewEngine()
		if err != nil {
			t.Fatal(err)
		}
		if got := len(eng.ShardStats()); got != want {
			t.Errorf("GOMAXPROCS=%d: NewEngine() has %d shards, want %d", p, got, want)
		}
	}
}
