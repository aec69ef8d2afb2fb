package engine_test

import (
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// TestIndexFootprintAtBenchmarkDensity pins the index's bytes per worker on
// the repository benchmark's population shape — 64×64 grid over
// SyntheticRegion, ε = 0.6, uniform workers obfuscated the way an agent
// does it (fake leaves included), plain inserts with no Reserve — so a
// regression in the layout fails go test and not only
// hst.arena_bytes_per_worker. The mechanism spreads reports over the padded
// complete tree, which a node-per-prefix trie pays for in one- and two-item
// subtrees (176.8, 76.4, 47.7, 26.4 and 17.0 B/worker at these five sizes
// before the index kept a subtree of up to 96 workers as one bucket). 1,000
// workers is the sparse end, where the inner nodes above the reach of a
// suffix word are most of the figure; a million is the dense one, 75 workers
// to a real leaf, where every fake sibling of such a leaf is a bucket of its
// own with a chunk mostly empty. Ceilings sit ~10 % above what ships (22.9,
// 13.6, 11.9, 10.5 and 16.1 B).
func TestIndexFootprintAtBenchmarkDensity(t *testing.T) {
	const side = 64
	grid, err := geo.NewGrid(workload.SyntheticRegion, side, side)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hst.Build(grid.Points(), rng.New(7).Derive("server-hst"))
	if err != nil {
		t.Fatal(err)
	}
	pub := platform.Publication{Tree: tree, Region: workload.SyntheticRegion, Cols: side, Rows: side, Epsilon: workload.DefaultEpsilon, Epoch: engine.FirstEpoch}
	for _, tc := range []struct {
		workers int
		ceiling float64 // bytes per worker
	}{{1000, 25}, {16384, 15}, {65536, 13}, {262144, 11.6}, {1048576, 17.7}} {
		ob, err := platform.NewObfuscator(pub, 11)
		if err != nil {
			t.Fatal(err)
		}
		pts := make([]geo.Point, tc.workers)
		src, uniform := rng.New(13), workload.UniformSampler(workload.SyntheticRegion)
		for i := range pts {
			pts[i] = uniform(src)
		}
		eng, err := engine.New(tree, 0)
		if err != nil {
			t.Fatal(err)
		}
		for id, code := range ob.ObfuscateBatch(pts) {
			if err := eng.Insert(code, id); err != nil {
				t.Fatal(err)
			}
		}
		got := float64(eng.ArenaBytes()) / float64(eng.Len())
		t.Logf("%d workers: %.1f index bytes per worker", tc.workers, got)
		if got > tc.ceiling {
			t.Errorf("%d workers: index holds %.1f B/worker, ceiling %.1f", tc.workers, got, tc.ceiling)
		}
	}
}
