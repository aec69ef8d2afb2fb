package geo

import (
	"errors"
	"fmt"
	"math"
)

// Grid is a uniform Cols × Rows lattice of predefined points covering a
// rectangle. The paper's server publishes such a predefined point set and
// builds the HST over it; workers and tasks snap their true locations to the
// nearest predefined point before obfuscation (Sec. III-B).
//
// Points are laid out at cell centers so that every location in the region
// is within half a cell diagonal of some predefined point. Index order is
// row-major: index = row*Cols + col.
type Grid struct {
	Region Rect
	Cols   int
	Rows   int

	points []Point
	cellW  float64
	cellH  float64
}

// ErrEmptyGrid is returned when a grid with no cells is requested.
var ErrEmptyGrid = errors.New("geo: grid must have at least 1 column and 1 row")

// NewGrid builds a cols × rows grid of predefined points over region.
func NewGrid(region Rect, cols, rows int) (*Grid, error) {
	if cols < 1 || rows < 1 {
		return nil, fmt.Errorf("%w (got %dx%d)", ErrEmptyGrid, cols, rows)
	}
	if !(region.Width() > 0 && region.Height() > 0) || !Pt(region.MinX, region.MinY).IsFinite() || !Pt(region.MaxX, region.MaxY).IsFinite() {
		return nil, fmt.Errorf("geo: grid region %v must be finite with positive area", region)
	}
	g := &Grid{
		Region: region,
		Cols:   cols,
		Rows:   rows,
		cellW:  region.Width() / float64(cols),
		cellH:  region.Height() / float64(rows),
	}
	g.points = make([]Point, 0, cols*rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.points = append(g.points, Point{
				X: region.MinX + (float64(c)+0.5)*g.cellW,
				Y: region.MinY + (float64(r)+0.5)*g.cellH,
			})
		}
	}
	return g, nil
}

// MustGrid is NewGrid that panics on error; for tests and examples with
// constant arguments.
func MustGrid(region Rect, cols, rows int) *Grid {
	g, err := NewGrid(region, cols, rows)
	if err != nil {
		panic(err)
	}
	return g
}

// Points returns the predefined points in index order. The caller must not
// modify the returned slice.
func (g *Grid) Points() []Point { return g.points }

// Len returns the number of predefined points (N in the paper).
func (g *Grid) Len() int { return len(g.points) }

// Point returns the predefined point with the given index.
func (g *Grid) Point(i int) Point { return g.points[i] }

// Snap returns the index of the predefined point nearest to p. Locations
// outside the region are clamped to it first, and a NaN coordinate reads as
// the region's minimum on its axis, so Snap is total. It runs in
// O(1) by exploiting the uniform layout.
func (g *Grid) Snap(p Point) int {
	p = g.Region.Clamp(p)
	c := int(math.Floor((p.X - g.Region.MinX) / g.cellW))
	r := int(math.Floor((p.Y - g.Region.MinY) / g.cellH))
	// A point exactly on the max boundary floors to Cols/Rows; pull it in.
	if c >= g.Cols {
		c = g.Cols - 1
	}
	if r >= g.Rows {
		r = g.Rows - 1
	}
	return r*g.Cols + c
}
