package hst

import (
	"math"
	"testing"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/rng"
)

func TestBuildValidation(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(10, 0)}
	perm := []int{0, 1}
	if _, err := BuildWithParams(nil, 0.5, nil); err == nil {
		t.Error("empty points accepted")
	}
	if _, err := BuildWithParams(pts, 0.4, perm); err == nil {
		t.Error("beta below 1/2 accepted")
	}
	if _, err := BuildWithParams(pts, 1.1, perm); err == nil {
		t.Error("beta above 1 accepted")
	}
	if _, err := BuildWithParams(pts, 0.5, []int{0}); err == nil {
		t.Error("short perm accepted")
	}
	if _, err := BuildWithParams(pts, 0.5, []int{0, 0}); err == nil {
		t.Error("repeated perm entry accepted")
	}
	if _, err := BuildWithParams(pts, 0.5, []int{0, 2}); err == nil {
		t.Error("out-of-range perm entry accepted")
	}
	dup := []geo.Point{geo.Pt(1, 1), geo.Pt(1, 1)}
	if _, err := BuildWithParams(dup, 0.5, perm); err == nil {
		t.Error("duplicate points accepted")
	}
	bad := []geo.Point{geo.Pt(math.NaN(), 0), geo.Pt(1, 1)}
	if _, err := BuildWithParams(bad, 0.5, perm); err == nil {
		t.Error("non-finite point accepted")
	}
}

func TestBuildSinglePoint(t *testing.T) {
	tr, err := BuildWithParams([]geo.Point{geo.Pt(3, 4)}, 0.5, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Depth() != 1 || tr.Degree() != 1 {
		t.Errorf("D=%d c=%d, want 1,1", tr.Depth(), tr.Degree())
	}
	if tr.Dist(tr.CodeOf(0), tr.CodeOf(0)) != 0 {
		t.Error("self distance nonzero")
	}
}

// TestBuildPaperExample1 reproduces Example 1 of the paper: four points,
// permutation <o1,o2,o3,o4>, β = 1/2, yielding a binary tree of depth 4
// with LCA(o1,o2) at level 3 and LCA(o3,o4) at level 2.
func TestBuildPaperExample1(t *testing.T) {
	pts := []geo.Point{geo.Pt(1, 1), geo.Pt(2, 3), geo.Pt(5, 3), geo.Pt(4, 4)}
	tr, err := BuildWithParams(pts, 0.5, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Depth() != 4 {
		t.Errorf("D = %d, want 4", tr.Depth())
	}
	if tr.Degree() != 2 {
		t.Errorf("c = %d, want 2", tr.Degree())
	}
	if tr.Scale() != 1 {
		t.Errorf("scale = %v, want 1", tr.Scale())
	}
	o := func(i int) Code { return tr.CodeOf(i - 1) }
	lcas := []struct {
		a, b int
		want int
	}{
		{1, 2, 3},                                  // o1,o2 split when carving level-2 children
		{1, 3, 4}, {1, 4, 4}, {2, 3, 4}, {2, 4, 4}, // across the root split
		{3, 4, 2}, // o3,o4 stay together until level 2
	}
	for _, tt := range lcas {
		if got := tr.LCALevel(o(tt.a), o(tt.b)); got != tt.want {
			t.Errorf("lvl(o%d,o%d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
	// Tree distances follow 2^(ℓ+2) − 4.
	if d := tr.Dist(o(1), o(2)); d != 28 {
		t.Errorf("dT(o1,o2) = %v, want 28", d)
	}
	if d := tr.Dist(o(3), o(4)); d != 12 {
		t.Errorf("dT(o3,o4) = %v, want 12", d)
	}
	if d := tr.Dist(o(1), o(3)); d != 60 {
		t.Errorf("dT(o1,o3) = %v, want 60", d)
	}
	// The complete binary tree of depth 4 has 16 leaves: 4 real, 12 fake
	// (f1..f12 in the paper's Fig. 3).
	if got := tr.TotalLeaves(); got != 16 {
		t.Errorf("TotalLeaves = %v, want 16", got)
	}
	// The root must have exactly the clusters {o1,o2} and {o3,o4}.
	root := tr.Root()
	if len(root.Children) != 2 {
		t.Fatalf("root has %d children", len(root.Children))
	}
	if got := root.Children[0].Points; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("first root child = %v, want [0 1]", got)
	}
	if got := root.Children[1].Points; len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("second root child = %v, want [2 3]", got)
	}
}

func TestBuildNonContraction(t *testing.T) {
	// FRT guarantee: tree distance never contracts the (scaled) metric.
	src := rng.New(2024)
	for trial := 0; trial < 10; trial++ {
		pts := randomPoints(src.DeriveN("pts", trial), 60, 200)
		tr, err := Build(pts, src.DeriveN("tree", trial))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(pts); i++ {
			for j := i + 1; j < len(pts); j++ {
				dm := pts[i].Dist(pts[j]) * tr.Scale()
				dt := tr.Dist(tr.CodeOf(i), tr.CodeOf(j))
				if dt < dm-1e-9 {
					t.Fatalf("trial %d: dT(%d,%d)=%v < scaled d=%v", trial, i, j, dt, dm)
				}
			}
		}
	}
}

func TestBuildDistortionIsLogarithmic(t *testing.T) {
	// Average over random trees: E[dT] ≤ C·log2(N)·d for a generous C.
	// This is a statistical sanity check of the FRT embedding, not a proof.
	src := rng.New(7)
	pts := randomPoints(src.Derive("pts"), 80, 200)
	const trees = 30
	sum := make(map[[2]int]float64)
	for trial := 0; trial < trees; trial++ {
		tr, err := Build(pts, src.DeriveN("tree", trial))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(pts); i++ {
			for j := i + 1; j < len(pts); j++ {
				sum[[2]int{i, j}] += tr.Dist(tr.CodeOf(i), tr.CodeOf(j))
			}
		}
	}
	logN := math.Log2(float64(len(pts)))
	var worst float64
	for pair, total := range sum {
		d := pts[pair[0]].Dist(pts[pair[1]])
		ratio := (total / trees) / d
		if ratio > worst {
			worst = ratio
		}
	}
	// The FRT bound is 8·H(n) ≈ O(log n) with constants; 40·log2 N is a
	// loose ceiling that catches gross construction bugs.
	if worst > 40*logN {
		t.Errorf("worst expected distortion %v exceeds %v", worst, 40*logN)
	}
}

func TestBuildClusterRadiusInvariant(t *testing.T) {
	// Every level-i cluster must lie within radius β·2^i of its pivot
	// (in the scaled metric) — the defining property of ball carving.
	src := rng.New(55)
	pts := randomPoints(src.Derive("pts"), 100, 150)
	tr, err := Build(pts, src.Derive("tree"))
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Pivot >= 0 {
			radius := tr.Beta() * math.Ldexp(1, n.Level)
			for _, p := range n.Points {
				d := pts[p].Dist(pts[n.Pivot]) * tr.Scale()
				if d > radius+1e-9 {
					t.Fatalf("level-%d cluster: point %d at scaled dist %v > radius %v of pivot %d",
						n.Level, p, d, radius, n.Pivot)
				}
			}
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(tr.Root())
}

func TestBuildChildPartition(t *testing.T) {
	// Children of every internal node partition the parent's point set.
	src := rng.New(91)
	pts := randomPoints(src.Derive("pts"), 70, 100)
	tr, err := Build(pts, src.Derive("tree"))
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Level == 0 {
			return
		}
		seen := map[int]bool{}
		for _, ch := range n.Children {
			for _, p := range ch.Points {
				if seen[p] {
					t.Fatalf("point %d in two children of a level-%d node", p, n.Level)
				}
				seen[p] = true
			}
			walk(ch)
		}
		if len(seen) != len(n.Points) {
			t.Fatalf("level-%d node: children cover %d of %d points", n.Level, len(seen), len(n.Points))
		}
	}
	walk(tr.Root())
}

func TestBuildAutoScaleTinyMetric(t *testing.T) {
	// Points closer than 1 apart must trigger scaling, not corrupt leaves.
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(0.1, 0), geo.Pt(0, 0.15)}
	tr, err := BuildWithParams(pts, 1.0, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Scale() <= 1 {
		t.Errorf("scale = %v, want > 1", tr.Scale())
	}
	// All three leaves distinct.
	codes := map[Code]bool{}
	for i := range pts {
		codes[tr.CodeOf(i)] = true
	}
	if len(codes) != 3 {
		t.Errorf("only %d distinct leaf codes", len(codes))
	}
}

func TestBuildCodesBijective(t *testing.T) {
	src := rng.New(31)
	pts := randomPoints(src.Derive("pts"), 200, 300)
	tr, err := Build(pts, src.Derive("tree"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		c := tr.CodeOf(i)
		if len(c) != tr.Depth() {
			t.Fatalf("code %d has length %d, want %d", i, len(c), tr.Depth())
		}
		j, ok := tr.PointOf(c)
		if !ok || j != i {
			t.Fatalf("PointOf(CodeOf(%d)) = (%d,%v)", i, j, ok)
		}
	}
	if err := tr.CheckCode(Code("x")); err == nil {
		t.Error("malformed code accepted")
	}
}

func TestLevelDist(t *testing.T) {
	wants := map[int]float64{0: 0, 1: 4, 2: 12, 3: 28, 4: 60, 10: 4092}
	for lvl, want := range wants {
		if got := LevelDist(lvl); got != want {
			t.Errorf("LevelDist(%d) = %v, want %v", lvl, got, want)
		}
	}
}

func TestSiblingSetSizesSumToTotal(t *testing.T) {
	// 1 + Σ_{i=1..D} (c−1)c^{i−1} = c^D for the virtual complete tree.
	src := rng.New(3)
	pts := randomPoints(src.Derive("pts"), 40, 120)
	tr, err := Build(pts, src.Derive("tree"))
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for i := 0; i <= tr.Depth(); i++ {
		total += tr.SiblingSetSize(i)
	}
	if math.Abs(total-tr.TotalLeaves()) > 1e-6*tr.TotalLeaves() {
		t.Errorf("Σ|L_i| = %v, c^D = %v", total, tr.TotalLeaves())
	}
}

// randomPoints draws n distinct points in [0,side]².
func randomPoints(src *rng.Source, n int, side float64) []geo.Point {
	pts := make([]geo.Point, 0, n)
	seen := map[geo.Point]bool{}
	for len(pts) < n {
		p := geo.Pt(src.Uniform(0, side), src.Uniform(0, side))
		if !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	}
	return pts
}
