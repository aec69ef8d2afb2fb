package privacy

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

func intoTestMech(t testing.TB, cols int, eps float64) *HSTMechanism {
	t.Helper()
	g, err := geo.NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(200, 200)), cols, cols)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hst.Build(g.Points(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewHSTMechanism(tree, eps)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestObfuscateEachMatchesWalkLoop: the one-pass sampler must consume
// exactly the random stream of the per-item walk sampler and produce
// identical codes — batch and loop are interchangeable result for result,
// which is what keeps the evaluation pipelines bit-for-bit reproducible
// across the batch migration. The loop's codes are compared after every
// later walk has run, so a walk's code must be its own, never a view of the
// sampler's digit buffer.
func TestObfuscateEachMatchesWalkLoop(t *testing.T) {
	m := intoTestMech(t, 16, 0.6)
	tree := m.Tree()
	src := rng.New(42)
	xs := make([]hst.Code, 500)
	for i := range xs {
		xs[i] = tree.CodeOf(src.Intn(tree.NumPoints()))
	}

	loopSrc := rng.New(1234)
	want := make([]hst.Code, len(xs))
	for i, x := range xs {
		want[i] = m.ObfuscateWalk(x, loopSrc)
	}

	batchSrc := rng.New(1234)
	got := m.ObfuscateEach(len(xs), func(i int) hst.Code { return xs[i] }, batchSrc)
	if len(got) != len(xs) {
		t.Fatalf("%d codes for %d leaves", len(got), len(xs))
	}
	for i := range xs {
		if got[i] != want[i] {
			t.Fatalf("item %d: batch %v ≠ loop %v", i, []byte(got[i]), []byte(want[i]))
		}
	}
	if batchSrc.Uint64() != loopSrc.Uint64() {
		t.Error("batch and loop left the source at different points of its stream")
	}
	if got := m.ObfuscateEach(0, nil, batchSrc); len(got) != 0 {
		t.Errorf("an empty wave returned %d codes", len(got))
	}
}

// TestObfuscateWalkAllocs pins the hot-path allocation contract: at most
// one allocation per ObfuscateWalk (the final Code materialisation), and
// for ObfuscateEach two per wave on
// one goroutine — the slab and the result — at 256 items, one item below
// the fan-out and 65,536 items at GOMAXPROCS 1, and fanOutAllocs per wave
// that fans out, the same at 65,536 items as at 1,048,576.
func TestObfuscateWalkAllocs(t *testing.T) {
	m := intoTestMech(t, 32, 0.6)
	tree := m.Tree()
	src := rng.New(8)
	x := tree.CodeOf(100)

	if a := testing.AllocsPerRun(1000, func() { m.ObfuscateWalk(x, src) }); a > 1 {
		t.Errorf("ObfuscateWalk allocates %.1f/op, want ≤ 1", a)
	}

	// A collection the large waves trigger may allocate in the runtime;
	// the pin counts the sampler's own allocations.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	leaf := func(i int) hst.Code { return tree.CodeOf(i % tree.NumPoints()) }
	// testing.AllocsPerRun runs at GOMAXPROCS 1, so every wave here stays
	// on the caller's goroutine, 65,536 items included.
	for _, n := range []int{256, obfuscateFanOut - 1, 65536} {
		if a := testing.AllocsPerRun(5, func() { m.ObfuscateEach(n, leaf, src) }); a != 2 {
			t.Errorf("ObfuscateEach allocates %.1f/wave of %d at GOMAXPROCS 1, want 2", a, n)
		}
	}

	// Counted by hand at GOMAXPROCS 2, as the least of several waves: a
	// wave that must make a goroutine afresh, instead of reusing a dead
	// one, allocates once more, and noise of that kind only ever adds.
	// Each wave is collected before the next, so at most one is live.
	const fanOutAllocs = 4 // slab, codes, the helper's closure and channel
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, n := range []int{65536, 1 << 20} {
		least := uint64(math.MaxUint64)
		for range 5 {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m.ObfuscateEach(n, leaf, src)
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		if least != fanOutAllocs {
			t.Errorf("ObfuscateEach allocates %d/wave of %d at GOMAXPROCS 2, want %d", least, n, fanOutAllocs)
		}
	}
}

// BenchmarkObfuscateEach obfuscates a wave on one goroutine (1,024 codes)
// and a wave that fans out to the helper (262,144 codes).
func BenchmarkObfuscateEach(b *testing.B) {
	m := intoTestMech(b, 32, 0.6)
	tree := m.Tree()
	for _, n := range []int{1024, 1 << 18} {
		b.Run(fmt.Sprintf("codes=%d", n), func(b *testing.B) {
			src := rng.New(2)
			xs := make([]hst.Code, n)
			for i := range xs {
				xs[i] = tree.CodeOf(i % tree.NumPoints())
			}
			leaf := func(i int) hst.Code { return xs[i] }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ObfuscateEach(len(xs), leaf, src)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(xs)), "ns/code")
		})
	}
}
