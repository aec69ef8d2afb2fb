package hst

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/roadnet"
	"github.com/pombm/pombm/internal/workload"
)

// refBuildMetric is the original Alg. 1 builder: it carves cluster by
// cluster, trying every pivot of perm on every cluster at every level
// (O(N²·D) distance calls), after an all-pairs min/max scan. It is retained
// as the behavioural reference for the first-pivot builder — the
// differential tests require the same Tree, node for node — and is not
// compiled into the package.
func refBuildMetric(points []geo.Point, rawDist func(a, b int) float64, beta float64, perm []int) (*Tree, error) {
	if err := checkParams(len(points), beta, perm); err != nil {
		return nil, err
	}
	scale, maxDist, err := refMetricScaleFor(len(points), rawDist)
	if err != nil {
		return nil, err
	}
	dist := func(a, b int) float64 { return rawDist(a, b) * scale }

	depth := 1
	if maxDist*scale > 0 {
		depth = int(math.Ceil(math.Log2(2 * maxDist * scale)))
		if depth < 1 {
			depth = 1
		}
	}

	all := make([]int, len(points))
	for i := range all {
		all[i] = i
	}
	root := &Node{Level: depth, Pivot: -1, Points: all}

	// Carve top-down. member marks which points remain unassigned within
	// the cluster currently being carved.
	member := make([]bool, len(points))
	current := []*Node{root}
	for level := depth - 1; level >= 0; level-- {
		radius := beta * math.Ldexp(1, level)
		var next []*Node
		for _, cluster := range current {
			for _, p := range cluster.Points {
				member[p] = true
			}
			remaining := len(cluster.Points)
			for _, pivot := range perm {
				if remaining == 0 {
					break
				}
				var carved []int
				for _, p := range cluster.Points {
					if member[p] && dist(p, pivot) <= radius {
						carved = append(carved, p)
					}
				}
				if len(carved) == 0 {
					continue
				}
				child := &Node{Level: level, Pivot: pivot, Points: carved}
				cluster.Children = append(cluster.Children, child)
				next = append(next, child)
				for _, p := range carved {
					member[p] = false
				}
				remaining -= len(carved)
			}
		}
		current = next
	}

	t := &Tree{pts: points, beta: beta, scale: scale, perm: perm, root: root, depth: depth}
	if err := t.finish(current); err != nil {
		return nil, err
	}
	return t, nil
}

func refMetricScaleFor(n int, dist func(a, b int) float64) (scale, maxDist float64, err error) {
	minDist := math.Inf(1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := dist(i, j)
			if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
				return 0, 0, fmt.Errorf("hst: dist(%d,%d) = %v is not a valid metric value", i, j, d)
			}
			if d == 0 {
				return 0, 0, fmt.Errorf("%w: points %d and %d coincide", ErrDuplicatePoints, i, j)
			}
			if d < minDist {
				minDist = d
			}
			if d > maxDist {
				maxDist = d
			}
		}
	}
	if math.IsInf(minDist, 1) { // single point
		return 1, 0, nil
	}
	if minDist > 1.0000001 {
		return 1, maxDist, nil
	}
	return 2 / minDist, maxDist, nil
}

func refBuildPlanar(points []geo.Point, beta float64, perm []int) (*Tree, error) {
	return refBuildMetric(points, func(a, b int) float64 { return points[a].Dist(points[b]) }, beta, perm)
}

// sameBuild fails unless the two builders agree: the same error text, or
// the same Depth/Degree/Scale, leaf codes and cluster tree.
func sameBuild(t testing.TB, got *Tree, gotErr error, want *Tree, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("error = %v, reference error = %v", gotErr, wantErr)
		}
		return
	}
	if got.Depth() != want.Depth() || got.Degree() != want.Degree() || got.Scale() != want.Scale() {
		t.Fatalf("D=%d c=%d scale=%v, reference D=%d c=%d scale=%v",
			got.Depth(), got.Degree(), got.Scale(), want.Depth(), want.Degree(), want.Scale())
	}
	for i := 0; i < want.NumPoints(); i++ {
		if got.CodeOf(i) != want.CodeOf(i) {
			t.Fatalf("CodeOf(%d) = %v, reference %v", i, []byte(got.CodeOf(i)), []byte(want.CodeOf(i)))
		}
	}
	var walk func(g, w *Node)
	walk = func(g, w *Node) {
		if g.Level != w.Level || g.Pivot != w.Pivot || fmt.Sprint(g.Points) != fmt.Sprint(w.Points) || len(g.Children) != len(w.Children) {
			t.Fatalf("node {level %d pivot %d points %v, %d children}, reference {level %d pivot %d points %v, %d children}",
				g.Level, g.Pivot, g.Points, len(g.Children), w.Level, w.Pivot, w.Points, len(w.Children))
		}
		for j := range w.Children {
			walk(g.Children[j], w.Children[j])
		}
	}
	walk(got.Root(), want.Root())
}

func gridPoints(region geo.Rect, cols, rows int) []geo.Point {
	return geo.MustGrid(region, cols, rows).Points()
}

func TestBuildDifferentialPlanar(t *testing.T) {
	unit := func(cols, rows int) geo.Rect { return geo.NewRect(geo.Pt(0, 0), geo.Pt(float64(cols), float64(rows))) }
	src := rng.New(12)
	clustered := func(n int) []geo.Point { // three tight blobs: many points per cell, min distance ≪ 1
		seen := map[geo.Point]bool{}
		var pts []geo.Point
		for len(pts) < n {
			c := geo.Pt(float64(len(pts)%3)*40, float64(len(pts)%3)*25)
			p := geo.Pt(c.X+src.Normal(0, 0.8), c.Y+src.Normal(0, 0.8))
			if !seen[p] {
				seen[p] = true
				pts = append(pts, p)
			}
		}
		return pts
	}
	cases := []struct {
		name     string
		pts      []geo.Point
		rescaled bool // minimum distance ≤ 1, so Scale must differ from 1
	}{
		{"1-point", []geo.Point{geo.Pt(3, 4)}, false},
		{"2-point", []geo.Point{geo.Pt(0, 0), geo.Pt(10, 0)}, false},
		{"2-point-close", []geo.Point{geo.Pt(5, 5), geo.Pt(5, 5.25)}, true},
		{"collinear-1x17", gridPoints(unit(17, 1), 17, 1), true}, // 4·16 is a power of two: the scale scan falls back
		{"collinear-23x1-wide", gridPoints(geo.NewRect(geo.Pt(0, 0), geo.Pt(230, 1)), 23, 1), false},
		{"grid-8x8-unit", gridPoints(unit(8, 8), 8, 8), true},
		{"grid-17x17", gridPoints(workload.SyntheticRegion, 17, 17), false},
		{"grid-64x64", gridPoints(workload.SyntheticRegion, 64, 64), false},
		{"random-300-dense", randomPoints(src.Derive("dense"), 300, 6), true},
		{"random-150-sparse", randomPoints(src.Derive("wide"), 150, 5000), false},
		{"clustered-240", clustered(240), true},
		{"tiny-extent", []geo.Point{geo.Pt(0, 0), geo.Pt(1e-120, 0), geo.Pt(0, 3e-120), geo.Pt(2e-120, 2e-120)}, true},
		{"duplicate", []geo.Point{geo.Pt(1, 1), geo.Pt(2, 2), geo.Pt(7, 1), geo.Pt(2, 2), geo.Pt(1, 1)}, false},
		{"overflowing", []geo.Point{geo.Pt(-1.5e308, 0), geo.Pt(1, 1), geo.Pt(1.5e308, 0)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seeds := []uint64{1, 2, 3}
			if len(tc.pts) > 1000 {
				seeds = seeds[:1] // the reference carve takes ~0.3 s on 64×64
			}
			for _, seed := range seeds {
				perm, beta := drawParams(len(tc.pts), rng.New(seed))
				for _, b := range []float64{beta, 0.5, 1} {
					got, gotErr := BuildWithParams(tc.pts, b, perm)
					want, wantErr := refBuildPlanar(tc.pts, b, perm)
					sameBuild(t, got, gotErr, want, wantErr)
					if gotErr == nil && (got.Scale() != 1) != tc.rescaled {
						t.Errorf("scale = %v, want rescaled = %v", got.Scale(), tc.rescaled)
					}
					if len(tc.pts) > 1000 {
						break
					}
				}
			}
		})
	}
}

func roadMetric(t testing.TB, cols, rows int) *roadnet.Metric {
	t.Helper()
	g, err := roadnet.Manhattan(workload.SyntheticRegion, cols, rows, 0.4, 0.1, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int, g.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	m, err := g.MetricAmong(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildDifferentialMetric(t *testing.T) {
	m := roadMetric(t, 12, 12)
	points := make([]geo.Point, m.Len())
	for seed := uint64(1); seed <= 3; seed++ {
		perm, beta := drawParams(m.Len(), rng.New(seed))
		got, gotErr := BuildMetricWithParams(points, m.Dist, beta, perm)
		want, wantErr := refBuildMetric(points, m.Dist, beta, perm)
		if gotErr != nil {
			t.Fatal(gotErr)
		}
		sameBuild(t, got, gotErr, want, wantErr)
	}
	// A small metric (shortest paths are < 1 apart) exercises scale ≠ 1.
	small := func(a, b int) float64 { return m.Dist(a, b) / 64 }
	perm, beta := drawParams(m.Len(), rng.New(4))
	got, gotErr := BuildMetricWithParams(points, small, beta, perm)
	want, wantErr := refBuildMetric(points, small, beta, perm)
	if gotErr != nil || got.Scale() == 1 {
		t.Fatalf("err %v, scale %v: want a rescaled tree", gotErr, got.Scale())
	}
	sameBuild(t, got, gotErr, want, wantErr)
}

// TestBuildMetricRejectsInvalidMetric: a one-way street (dist(0,2) shorter
// than dist(2,0)) used to pass the scale scan, which read only i<j, and
// yield a tree that contracted the long direction.
func TestBuildMetricRejectsInvalidMetric(t *testing.T) {
	oneWay := [][]float64{
		{0, 4, 2},
		{4, 0, 4},
		{9, 4, 0},
	}
	matrix := func(m [][]float64) func(a, b int) float64 {
		return func(a, b int) float64 { return m[a][b] }
	}
	_, err := BuildMetric(3, matrix(oneWay), rng.New(1))
	if !errors.Is(err, ErrAsymmetricMetric) {
		t.Errorf("one-way street: err = %v, want ErrAsymmetricMetric", err)
	}
	if want := "hst: metric is not symmetric: dist(0,2) = 2 but dist(2,0) = 9"; err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
	selfLoop := [][]float64{{0, 3}, {3, 1}}
	if _, err := BuildMetric(2, matrix(selfLoop), rng.New(1)); err == nil || errors.Is(err, ErrAsymmetricMetric) {
		t.Errorf("non-zero diagonal: err = %v, want an invalid-metric-value error", err)
	}
	oneWay[2][0] = 2
	if _, err := BuildMetric(3, matrix(oneWay), rng.New(1)); err != nil {
		t.Errorf("symmetric matrix rejected: %v", err)
	}
}

// FuzzBuildDifferential holds the first-pivot builder to the reference carve
// on small point sets drawn from the tape: two bytes a point on a 1/4 or
// 1/64 lattice (so duplicates, collinear runs, rescaled metrics and exact
// powers of two all occur), β and the permutation from the seed bytes.
func FuzzBuildDifferential(f *testing.F) {
	f.Add(uint8(0), uint8(0), false, []byte{0, 0, 4, 0})
	f.Add(uint8(128), uint8(9), true, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 200, 100, 3, 4})
	f.Add(uint8(255), uint8(3), false, []byte{0, 0, 0, 16, 0, 32, 0, 48, 0, 64})
	f.Fuzz(func(t *testing.T, betaByte, permSeed uint8, fine bool, tape []byte) {
		if len(tape) > 128 {
			tape = tape[:128]
		}
		step := 0.25
		if fine {
			step = 1.0 / 64
		}
		pts := make([]geo.Point, len(tape)/2)
		for i := range pts {
			pts[i] = geo.Pt(float64(tape[2*i])*step, float64(tape[2*i+1])*step)
		}
		perm, _ := drawParams(len(pts), rng.New(uint64(permSeed)))
		beta := 0.5 + float64(betaByte)/510
		got, gotErr := BuildWithParams(pts, beta, perm)
		want, wantErr := refBuildPlanar(pts, beta, perm)
		sameBuild(t, got, gotErr, want, wantErr)

		manhattan := func(a, b int) float64 { return math.Abs(pts[a].X-pts[b].X) + math.Abs(pts[a].Y-pts[b].Y) }
		got, gotErr = BuildMetricWithParams(pts, manhattan, beta, perm)
		want, wantErr = refBuildMetric(pts, manhattan, beta, perm)
		sameBuild(t, got, gotErr, want, wantErr)
	})
}

// TestBuildGoldenPublication pins the tree every default deployment and the
// repository benchmark publish (seed 7, "server-hst", 64×64 over the
// synthetic region): a builder change that re-seeds it changes every
// agent's codes, and must say so by updating this digest.
func TestBuildGoldenPublication(t *testing.T) {
	tree, err := Build(gridPoints(workload.SyntheticRegion, 64, 64), rng.New(7).Derive("server-hst"))
	if err != nil {
		t.Fatal(err)
	}
	wire, err := json.Marshal(tree.Publish())
	if err != nil {
		t.Fatal(err)
	}
	const want = "75b1764dc6dd0d58e564d161bae9abd1d65fa66198766deba248e4fa961262b9"
	if got := fmt.Sprintf("%x", sha256.Sum256(wire)); got != want {
		t.Errorf("published tree digest = %s, want %s (D=%d c=%d)", got, want, tree.Depth(), tree.Degree())
	}
}

var benchTree *Tree

func BenchmarkBuild(b *testing.B) {
	for _, side := range []int{32, 64, 128} {
		pts := gridPoints(workload.SyntheticRegion, side, side)
		b.Run(fmt.Sprintf("grid=%d", side), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if benchTree, err = Build(pts, rng.New(7).Derive("server-hst")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBuildMetric(b *testing.B) {
	m := roadMetric(b, 24, 24)
	b.Run("roadnet", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if benchTree, err = BuildMetric(m.Len(), m.Dist, rng.New(7)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
