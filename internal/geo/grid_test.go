package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGridErrors(t *testing.T) {
	if _, err := NewGrid(Rect{0, 0, 10, 10}, 0, 5); err == nil {
		t.Error("expected error for zero columns")
	}
	if _, err := NewGrid(Rect{0, 0, 10, 10}, 5, 0); err == nil {
		t.Error("expected error for zero rows")
	}
	if _, err := NewGrid(Rect{0, 0, 0, 10}, 5, 5); err == nil {
		t.Error("expected error for degenerate region")
	}
}

func TestGridLayout(t *testing.T) {
	g := MustGrid(Rect{0, 0, 10, 10}, 2, 2)
	if g.Len() != 4 {
		t.Fatalf("Len = %d", g.Len())
	}
	want := []Point{Pt(2.5, 2.5), Pt(7.5, 2.5), Pt(2.5, 7.5), Pt(7.5, 7.5)}
	for i, w := range want {
		if g.Point(i) != w {
			t.Errorf("Point(%d) = %v, want %v", i, g.Point(i), w)
		}
	}
}

func TestGridSnapExactOnPoints(t *testing.T) {
	g := MustGrid(Rect{0, 0, 200, 200}, 8, 8)
	for i := 0; i < g.Len(); i++ {
		if got := g.Snap(g.Point(i)); got != i {
			t.Errorf("Snap(Point(%d)) = %d", i, got)
		}
	}
}

func TestGridSnapIsNearest(t *testing.T) {
	// Snap must agree with a brute-force nearest search, including on the
	// boundary and outside the region.
	g := MustGrid(Rect{-5, 3, 19, 17}, 5, 7)
	rng := rand.New(rand.NewSource(42))
	brute := func(p Point) int {
		p = g.Region.Clamp(p)
		best, bestD := 0, math.Inf(1)
		for i, q := range g.Points() {
			if d := p.Dist2(q); d < bestD {
				best, bestD = i, d
			}
		}
		return best
	}
	for i := 0; i < 2000; i++ {
		p := Pt(rng.Float64()*40-15, rng.Float64()*30-5)
		got, want := g.Snap(p), brute(p)
		if got == want {
			continue
		}
		// Equidistant ties may legitimately differ; accept equal distances.
		c := g.Region.Clamp(p)
		if math.Abs(c.Dist(g.Point(got))-c.Dist(g.Point(want))) > 1e-9 {
			t.Fatalf("Snap(%v) = %d (d=%v), brute = %d (d=%v)",
				p, got, c.Dist(g.Point(got)), want, c.Dist(g.Point(want)))
		}
	}
}

func TestGridSnapBoundary(t *testing.T) {
	g := MustGrid(Rect{0, 0, 10, 10}, 4, 4)
	if got := g.Snap(Pt(10, 10)); got != g.Len()-1 {
		t.Errorf("Snap(max corner) = %d, want %d", got, g.Len()-1)
	}
	if got := g.Snap(Pt(0, 0)); got != 0 {
		t.Errorf("Snap(min corner) = %d, want 0", got)
	}
	if got := g.Snap(Pt(-100, -100)); got != 0 {
		t.Errorf("Snap(far outside) = %d, want 0", got)
	}
}

func TestGridSnapErrorBound(t *testing.T) {
	// Any in-region point must be within half the cell diagonal of its
	// snapped predefined point.
	g := MustGrid(Rect{0, 0, 200, 200}, 32, 32)
	bound := math.Hypot(g.Region.Width()/float64(g.Cols), g.Region.Height()/float64(g.Rows))/2 + 1e-9
	f := func(x, y float64) bool {
		p := Pt(math.Mod(math.Abs(x), 200), math.Mod(math.Abs(y), 200))
		if !p.IsFinite() {
			return true
		}
		return p.Dist(g.Point(g.Snap(p))) <= bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
