package hst

import (
	"cmp"
	"math"
	"slices"

	"github.com/pombm/pombm/internal/geo"
)

// gridSlack pads every cell size derived from a distance, so that the
// rounding in Point.Dist and in the cell arithmetic (relative 1e-15) can
// never put two points within that distance further than one cell apart.
const gridSlack = 1 + 1e-6

// bucketGrid buckets the planar points into square cells over their
// bounding box; the planar builder reads everything that would cost O(N²)
// off it — the closest pair, and per level the first pivot of every point.
type bucketGrid struct {
	pts        []geo.Point
	minX, minY float64 // bounding box: origin ...
	w, h       float64 // ... and extent
	cell       float64
	nx, ny     int
	cellOf     []int32 // cell of each point
	start      []int32 // cell c owns items[start[c]:start[c+1]] ...
	live       []int32 // ... of which the first live[c] are still unassigned
	items      []int32
}

// fill buckets all points into cells of side ≥ minCell, enlarged as far as
// it takes to keep the cell count within 2N+1 (input clustered far below
// that resolution degrades towards an all-pairs sweep, never in result).
func (g *bucketGrid) fill(minCell float64) {
	m := float64(4 * len(g.pts)) // (w/cell+1)·(h/cell+1) ≤ m/4 + m/4 + 1
	g.cell = max(minCell, 2*math.Sqrt(g.w*g.h/m), 4*(g.w+g.h)/m)
	g.nx, g.ny = int(g.w/g.cell)+1, int(g.h/g.cell)+1
	cells := g.nx * g.ny
	g.start, g.live = g.start[:cells+1], g.live[:cells]
	clear(g.start)
	clear(g.live)
	for p, pt := range g.pts {
		c := int32(int((pt.Y-g.minY)/g.cell)*g.nx + int((pt.X-g.minX)/g.cell))
		g.cellOf[p] = c
		g.start[c+1]++
	}
	for c := 0; c < cells; c++ {
		g.start[c+1] += g.start[c]
	}
	for p, c := range g.cellOf {
		g.items[g.start[c]+g.live[c]] = int32(p)
		g.live[c]++
	}
}

// around returns the block of up to 3×3 cells centred on the cell of p.
func (g *bucketGrid) around(p int) (x0, x1, y0, y1 int) {
	cx, cy := int(g.cellOf[p])%g.nx, int(g.cellOf[p])/g.nx
	return max(cx-1, 0), min(cx+1, g.nx-1), max(cy-1, 0), min(cy+1, g.ny-1)
}

// firstPivots computes the first-pivot table of the planar builder. Per
// level the cells are at least one ball radius wide, so the 3×3 block
// around a pivot covers its ball; pivots are swept in permutation order,
// each taking the still-unassigned points its ball reaches, and every point
// leaves the grid once (at the latest when its own turn as pivot comes).
func (g *bucketGrid) firstPivots(perm []int, beta, scale float64, depth int) [][]int32 {
	sigma := newSigma(depth, len(g.pts))
	for level := depth - 1; level >= 0; level-- {
		radius := beta * math.Ldexp(1, level)
		g.fill(radius / scale * gridSlack)
		sig := sigma[level]
		for k, remaining := 0, len(g.pts); remaining > 0; k++ {
			pivot := g.pts[perm[k]]
			x0, x1, y0, y1 := g.around(perm[k])
			for y := y0; y <= y1; y++ {
				for c := y*g.nx + x0; c <= y*g.nx+x1; c++ {
					seg := g.items[g.start[c] : g.start[c]+g.live[c]]
					for i := 0; i < len(seg); {
						if p := seg[i]; g.pts[p].Dist(pivot)*scale <= radius {
							sig[p] = int32(k)
							seg[i] = seg[len(seg)-1]
							seg = seg[:len(seg)-1]
						} else {
							i++
						}
					}
					remaining -= int(g.live[c]) - len(seg)
					g.live[c] = int32(len(seg))
				}
			}
		}
	}
	return sigma
}

// scaleFor is metricScaleFor for the plane without the O(N²) scan. The
// minimum is exact: every pair whose Point.Dist is at most the value found
// lies in adjacent cells of a grid at least that wide, and was evaluated.
// The diameter is taken over the convex hull, which may be off by rounding;
// only the depth depends on it, so the full scan decides whenever it lands
// near a power of two — and whenever points coincide or the extent is too
// extreme for the hull's cross products, so those errors keep their text.
func (g *bucketGrid) scaleFor() (scale, maxDist float64, err error) {
	n := len(g.pts)
	full := func() (float64, float64, error) {
		return metricScaleFor(n, func(a, b int) float64 { return g.pts[a].Dist(g.pts[b]) })
	}
	g.cellOf, g.items = make([]int32, n), make([]int32, n)
	g.start, g.live = make([]int32, 2*n+2), make([]int32, 2*n+2)
	lo, hi := g.pts[0], g.pts[0]
	for _, p := range g.pts {
		lo.X, lo.Y, hi.X, hi.Y = min(lo.X, p.X), min(lo.Y, p.Y), max(hi.X, p.X), max(hi.Y, p.Y)
	}
	g.minX, g.minY, g.w, g.h = lo.X, lo.Y, hi.X-lo.X, hi.Y-lo.Y
	if ext := max(g.w, g.h); !(ext >= 1e-100 && ext <= 1e100) {
		return full()
	}

	minDist := math.Inf(1)
	for next := 0.0; minDist*gridSlack > g.cell; {
		g.fill(next)
		minDist = math.Inf(1)
		for p, pt := range g.pts {
			x0, x1, y0, y1 := g.around(p)
			for y := y0; y <= y1; y++ {
				for _, q := range g.items[g.start[y*g.nx+x0]:g.start[y*g.nx+x1+1]] {
					if int(q) > p {
						minDist = min(minDist, pt.Dist(g.pts[q]))
					}
				}
			}
		}
		if next = minDist * gridSlack; math.IsInf(minDist, 1) {
			next = 2 * g.cell // no two points in adjacent cells yet
		}
	}
	if minDist == 0 {
		return full()
	}
	scale = 1
	if minDist <= 1.0000001 {
		scale = 2 / minDist
	}

	hull := convexHull(g.pts)
	for i, a := range hull {
		for _, b := range hull[i+1:] {
			maxDist = max(maxDist, a.Dist(b))
		}
	}
	if v := math.Log2(2 * maxDist * scale); math.Abs(v-math.Round(v)) < 1e-9 {
		return full()
	}
	return scale, maxDist, nil
}

// convexHull returns the strict hull vertices (Andrew's monotone chain).
func convexHull(points []geo.Point) []geo.Point {
	pts := slices.Clone(points)
	slices.SortFunc(pts, func(a, b geo.Point) int {
		return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y))
	})
	hull := make([]geo.Point, 0, 2*len(pts))
	for pass, floor := 0, 2; pass < 2; pass++ {
		for _, p := range pts[pass:] { // the upper chain starts on the lower one's last vertex
			for len(hull) >= floor {
				a, b := hull[len(hull)-2], hull[len(hull)-1]
				if (b.X-a.X)*(p.Y-a.Y)-(b.Y-a.Y)*(p.X-a.X) > 0 {
					break
				}
				hull = hull[:len(hull)-1]
			}
			hull = append(hull, p)
		}
		floor = len(hull) + 1
		slices.Reverse(pts)
	}
	return hull[:len(hull)-1]
}
