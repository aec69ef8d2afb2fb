package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Pt(1, 2), Pt(1, 2), 0},
		{"unit x", Pt(0, 0), Pt(1, 0), 1},
		{"unit y", Pt(0, 0), Pt(0, 1), 1},
		{"3-4-5", Pt(0, 0), Pt(3, 4), 5},
		{"negative coords", Pt(-1, -1), Pt(2, 3), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
		})
	}
}

func TestDistSymmetryAndTriangle(t *testing.T) {
	sym := func(ax, ay, bx, by float64) bool {
		a, b := Pt(ax, ay), Pt(bx, by)
		d1, d2 := a.Dist(b), b.Dist(a)
		if math.IsInf(d1, 1) { // coordinate deltas can overflow to +Inf
			return math.IsInf(d2, 1)
		}
		return math.Abs(d1-d2) < 1e-12
	}
	if err := quick.Check(sym, nil); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	tri := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(ax, ay), Pt(bx, by), Pt(cx, cy)
		if !a.IsFinite() || !b.IsFinite() || !c.IsFinite() {
			return true
		}
		// Allow relative slack for float rounding on huge magnitudes.
		lhs := a.Dist(c)
		rhs := a.Dist(b) + b.Dist(c)
		return lhs <= rhs*(1+1e-9)+1e-9
	}
	if err := quick.Check(tri, nil); err != nil {
		t.Errorf("triangle inequality: %v", err)
	}
}

func TestDist2MatchesDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(ax, ay), Pt(bx, by)
		if !a.IsFinite() || !b.IsFinite() {
			return true
		}
		d := a.Dist(b)
		d2 := a.Dist2(b)
		if math.IsInf(d2, 1) {
			return math.IsInf(d*d, 1) || d*d > math.MaxFloat64/2
		}
		return math.Abs(d*d-d2) <= 1e-9*math.Max(1, d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointArithmetic(t *testing.T) {
	p := Pt(1, 2)
	if got := p.Add(Pt(3, -1)); got != Pt(4, 1) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(Pt(3, -1)); got != Pt(-2, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
}

func TestIsFinite(t *testing.T) {
	if !Pt(1, 2).IsFinite() {
		t.Error("finite point reported non-finite")
	}
	for _, p := range []Point{
		{math.NaN(), 0}, {0, math.NaN()},
		{math.Inf(1), 0}, {0, math.Inf(-1)},
	} {
		if p.IsFinite() {
			t.Errorf("%v reported finite", p)
		}
	}
}

func TestCentroid(t *testing.T) {
	if got := Centroid(nil); got != (Point{}) {
		t.Errorf("empty centroid = %v", got)
	}
	pts := []Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}
	if got := Centroid(pts); got != Pt(1, 1) {
		t.Errorf("centroid = %v, want (1,1)", got)
	}
}
