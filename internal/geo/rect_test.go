package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(Pt(5, 1), Pt(2, 7))
	want := Rect{MinX: 2, MinY: 1, MaxX: 5, MaxY: 7}
	if r != want {
		t.Errorf("NewRect = %+v, want %+v", r, want)
	}
}

func TestRectContainsAndClamp(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	tests := []struct {
		p       Point
		inside  bool
		clamped Point
	}{
		{Pt(5, 5), true, Pt(5, 5)},
		{Pt(0, 0), true, Pt(0, 0)},
		{Pt(10, 10), true, Pt(10, 10)},
		{Pt(-1, 5), false, Pt(0, 5)},
		{Pt(11, 5), false, Pt(10, 5)},
		{Pt(5, -3), false, Pt(5, 0)},
		{Pt(20, 20), false, Pt(10, 10)},
		{Pt(math.NaN(), 5), false, Pt(0, 5)},
		{Pt(5, math.NaN()), false, Pt(5, 0)},
		{Pt(math.NaN(), math.Inf(1)), false, Pt(0, 10)},
		{Pt(math.Inf(-1), math.NaN()), false, Pt(0, 0)},
	}
	for _, tt := range tests {
		if got := r.Contains(tt.p); got != tt.inside {
			t.Errorf("Contains(%v) = %v", tt.p, got)
		}
		if got := r.Clamp(tt.p); got != tt.clamped {
			t.Errorf("Clamp(%v) = %v, want %v", tt.p, got, tt.clamped)
		}
	}
}

func TestClampIsIdempotentAndInside(t *testing.T) {
	r := Rect{-3, 2, 8, 9}
	f := func(x, y float64) bool {
		p := Pt(x, y)
		if !p.IsFinite() {
			return true
		}
		c := r.Clamp(p)
		return r.Contains(c) && r.Clamp(c) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectCenter(t *testing.T) {
	r := Rect{0, 0, 3, 4}
	if c := r.Center(); c != Pt(1.5, 2) {
		t.Errorf("Center = %v", c)
	}
}
