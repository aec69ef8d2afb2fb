package platform

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// newBenchTreeServer serves the repository benchmark's tree: the 64×64 grid
// over the synthetic region at the default ε, server seed 7.
func newBenchTreeServer(t testing.TB) *Server {
	t.Helper()
	s, err := NewServer(workload.SyntheticRegion, 64, 64, workload.DefaultEpsilon, 7)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// uniformPoints draws n points uniformly over the synthetic region.
func uniformPoints(n int, seed uint64) []geo.Point {
	src := rng.New(seed)
	r := workload.SyntheticRegion
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Pt(src.Uniform(r.MinX, r.MaxX), src.Uniform(r.MinY, r.MaxY))
	}
	return pts
}

// checkBatchMatchesLoop: ObfuscateBatch over pts answers, code for code,
// what calling Obfuscate on each point in order answers from the same seed.
func checkBatchMatchesLoop(t *testing.T, pub Publication, seed uint64, pts []geo.Point) {
	t.Helper()
	a, err := NewObfuscator(pub, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewObfuscator(pub, seed)
	if err != nil {
		t.Fatal(err)
	}
	got := a.ObfuscateBatch(pts)
	if len(got) != len(pts) {
		t.Fatalf("%d codes for %d points", len(got), len(pts))
	}
	for i, p := range pts {
		if want := b.Obfuscate(p); got[i] != want {
			t.Fatalf("point %d %v: batch %v ≠ loop %v", i, p, []byte(got[i]), []byte(want))
		}
	}
}

// atProcs runs fn at GOMAXPROCS procs.
func atProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestObfuscateBatchMatchesLoop: the agent-side batch obfuscator must draw
// exactly the stream of per-point Obfuscate calls — inside the region, on
// its edges, outside it, and for an empty wave. The waves of 8,191 points
// and more straddle the size from which a wave fans out to a helper
// goroutine in 4,096-point chunks (12,289 ends one point into a chunk), and
// each runs at GOMAXPROCS 1, which never fans out, and at 2.
func TestObfuscateBatchMatchesLoop(t *testing.T) {
	r := workload.SyntheticRegion
	edges := []geo.Point{
		geo.Pt(r.MaxX, r.MaxY), geo.Pt(r.MaxX, r.MinY), geo.Pt(r.MinX, r.MaxY),
		geo.Pt(r.MaxX, 100), geo.Pt(100, r.MaxY), geo.Pt(r.MinX, r.MinY),
		geo.Pt(-5, 100), geo.Pt(250, -3), geo.Pt(1e9, 1e9), geo.Pt(-1e9, 300),
	}
	small, bench := newTestServer(t), newBenchTreeServer(t)
	type wave struct {
		name string
		s    *Server
		pts  []geo.Point
	}
	waves := []wave{
		{"uniform/8x8", small, uniformPoints(100, 9)},
		{"uniform/64x64", bench, uniformPoints(2000, 9)},
		{"edges/8x8", small, edges},
		{"edges/64x64", bench, edges},
		{"empty", small, nil},
	}
	for _, n := range []int{8191, 8192, 8193, 12289, 1 << 18} {
		waves = append(waves, wave{fmt.Sprintf("uniform/64x64/%d", n), bench, uniformPoints(n, uint64(n))})
	}
	for _, tc := range waves {
		t.Run(tc.name, func(t *testing.T) {
			for _, procs := range []int{1, 2} {
				t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
					atProcs(procs, func() { checkBatchMatchesLoop(t, tc.s.Publication(), 33, tc.pts) })
				})
			}
		})
	}
}

// TestObfuscateNaNLocation: a NaN coordinate reads as the region's minimum
// on its axis, so every agent path answers a code of the tree instead of
// panicking.
func TestObfuscateNaNLocation(t *testing.T) {
	s := newTestServer(t)
	pub := s.Publication()
	o, err := NewObfuscator(pub, 5)
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	pts := []geo.Point{geo.Pt(nan, 5), geo.Pt(5, nan), geo.Pt(nan, nan)}
	for _, p := range pts {
		if err := pub.Tree.CheckCode(o.Obfuscate(p)); err != nil {
			t.Errorf("Obfuscate(%v): %v", p, err)
		}
	}
	for i, code := range o.ObfuscateBatch(pts) {
		if err := pub.Tree.CheckCode(code); err != nil {
			t.Errorf("ObfuscateBatch point %d: %v", i, err)
		}
	}
	if err := (Worker{ID: "nan", Loc: geo.Pt(nan, nan)}).Register(s, o); err != nil {
		t.Error(err)
	}
}

// FuzzObfuscateBatch feeds raw float64 bit patterns as coordinates: a wave
// of the four points they pair into must obfuscate as the per-point loop
// does, and neither may panic. So must those four tiled into a wave of
// 8,196 points at GOMAXPROCS 2, which fans out to the helper goroutine.
func FuzzObfuscateBatch(f *testing.F) {
	r := workload.SyntheticRegion
	sub := math.Float64frombits(0x000fffffffffffff)
	for i, p := range [][4]float64{
		{math.NaN(), 5, 5, math.NaN()},
		{math.Inf(1), math.Inf(-1), math.Inf(-1), 100},
		{math.MaxFloat64, -math.MaxFloat64, math.Copysign(0, -1), math.Copysign(0, -1)},
		{math.SmallestNonzeroFloat64, sub, -sub, -math.SmallestNonzeroFloat64},
		{r.MaxX, r.MaxY, r.MaxX, 17},
		{math.NaN(), math.NaN(), r.MaxX, math.Inf(1)},
	} {
		f.Add(math.Float64bits(p[0]), math.Float64bits(p[1]), math.Float64bits(p[2]), math.Float64bits(p[3]), uint64(i))
	}
	pub := newTestServer(f).Publication()
	tiled := make([]geo.Point, 8196)
	f.Fuzz(func(t *testing.T, x0, y0, x1, y1, seed uint64) {
		a := geo.Pt(math.Float64frombits(x0), math.Float64frombits(y0))
		b := geo.Pt(math.Float64frombits(x1), math.Float64frombits(y1))
		four := []geo.Point{a, b, geo.Pt(a.X, b.Y), geo.Pt(b.X, a.Y)}
		checkBatchMatchesLoop(t, pub, seed, four)
		for i := range tiled {
			tiled[i] = four[i%len(four)]
		}
		atProcs(2, func() { checkBatchMatchesLoop(t, pub, seed, tiled) })
	})
}

// BenchmarkObfuscateBatch obfuscates a wave of 262,144 uniform points on the
// repository benchmark's 64×64 tree.
func BenchmarkObfuscateBatch(b *testing.B) {
	o, err := NewObfuscator(newBenchTreeServer(b).Publication(), 3)
	if err != nil {
		b.Fatal(err)
	}
	pts := uniformPoints(1<<18, 11)
	var codes []hst.Code
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		codes = o.ObfuscateBatch(pts)
	}
	b.StopTimer()
	if len(codes) != len(pts) {
		b.Fatalf("%d codes for %d points", len(codes), len(pts))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pts)), "ns/code")
}
