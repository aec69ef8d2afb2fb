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
// own with a chunk mostly empty. Ceilings sit ~10 % above what the
// contiguous item slab read (22.9, 13.6, 11.9, 10.5 and 16.1 B); on 4 KiB
// item pages the index reads 23.8, 13.0, 11.5, 10.2 and 15.3 B, the
// sparse end up by the page a small index leaves idle. The capacity-4 row
// is batch-window's population: its capacity slab is a byte an item slot,
// a 512 B side page beside each 4 KiB item page: 12.7 B against 11.5 B.
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
		workers, capacity int
		ceiling           float64 // bytes per worker
	}{{1000, 1, 25}, {16384, 1, 15}, {65536, 1, 13}, {65536, 4, 14}, {262144, 1, 11.6}, {1048576, 1, 17.7}} {
		ob, err := platform.NewObfuscator(pub, 11)
		if err != nil {
			t.Fatal(err)
		}
		pts := make([]geo.Point, tc.workers)
		src, uniform := rng.New(13), workload.UniformSampler(workload.SyntheticRegion)
		for i := range pts {
			pts[i] = uniform(src)
		}
		eng, err := engine.NewWithOptions(tree, 0, engine.WithPolicy(engine.CapacityGreedy()), engine.WithDefaultCapacity(tc.capacity))
		if err != nil {
			t.Fatal(err)
		}
		for id, code := range ob.ObfuscateBatch(pts) {
			if err := eng.Insert(code, id); err != nil {
				t.Fatal(err)
			}
		}
		got := float64(eng.ArenaBytes()) / float64(eng.Len())
		t.Logf("%d workers of capacity %d: %.2f index bytes per worker", tc.workers, tc.capacity, got)
		if got > tc.ceiling {
			t.Errorf("%d workers of capacity %d: index holds %.1f B/worker, ceiling %.1f", tc.workers, tc.capacity, got, tc.ceiling)
		}
	}
}
