package geo

import "fmt"

// Rect is an axis-aligned rectangle [MinX,MaxX] × [MinY,MaxY].
// The zero Rect is the degenerate point at the origin.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	r := Rect{MinX: a.X, MinY: a.Y, MaxX: b.X, MaxY: b.Y}
	if r.MinX > r.MaxX {
		r.MinX, r.MaxX = r.MaxX, r.MinX
	}
	if r.MinY > r.MaxY {
		r.MinY, r.MaxY = r.MaxY, r.MinY
	}
	return r
}

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Center returns the midpoint of the rectangle.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Clamp returns the point in r closest to p.
func (r Rect) Clamp(p Point) Point {
	if p.X < r.MinX {
		p.X = r.MinX
	} else if p.X > r.MaxX {
		p.X = r.MaxX
	}
	if p.Y < r.MinY {
		p.Y = r.MinY
	} else if p.Y > r.MaxY {
		p.Y = r.MaxY
	}
	return p
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.4g,%.4g]x[%.4g,%.4g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}
