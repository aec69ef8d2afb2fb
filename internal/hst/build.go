package hst

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/rng"
)

// Build constructs an HST over the predefined points (Alg. 1) using a
// random permutation and β drawn uniformly from [1/2, 1].
//
// Alg. 1 carves each level-(i+1) cluster into level-i children with balls of
// radius β·2^i around the points in permutation order (the FRT
// decomposition: tree distance never contracts the metric, O(log N) expected
// distortion). A ball takes whatever of its cluster earlier balls left, so a
// point's child at level i is the first pivot in permutation order within
// β·2^i of it — whichever cluster it sits in. The builder computes that
// first pivot once per point and level and then writes the leaf codes
// top-down by grouping each cluster's points on it; Root builds the cluster
// tree from the codes only when asked. For planar input the first pivots
// come from sweeping the pivots over a bucket grid of the still-unassigned
// points, a level on each core, O(N·D) grid work plus at most an
// O(N log N) hull for the diameter; for an arbitrary metric from one
// pivot-ordered sweep that evaluates each ordered pair once, O(N²) distance
// calls in total. The tree is, bit for bit, the one the cluster-by-cluster
// carve yields (the tests keep that carve as the differential reference):
// every ball test decides as the literal dist(p, pivot)·scale ≤ β·2^i does.
//
// When the minimum pairwise distance is ≤ 1 the metric is scaled up so
// that level-0 balls isolate single points (the paper implicitly assumes
// unit minimum distance); the scale is recorded in Tree.Scale.
func Build(points []geo.Point, src *rng.Source) (*Tree, error) {
	perm, beta := drawParams(len(points), src)
	return BuildWithParams(points, beta, perm)
}

// drawParams draws the pivot permutation and β the seeded builders use.
func drawParams(n int, src *rng.Source) (perm []int, beta float64) {
	perm = make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rng.PermInPlace(src.Derive("hst-perm"), perm)
	return perm, src.Derive("hst-beta").Uniform(0.5, 1.0)
}

// BuildWithParams constructs an HST with an explicit radius factor and
// pivot permutation. It is used by tests that reproduce the paper's
// worked examples and by deterministic deployments.
func BuildWithParams(points []geo.Point, beta float64, perm []int) (*Tree, error) {
	for i, p := range points {
		if !p.IsFinite() {
			return nil, fmt.Errorf("hst: point %d is not finite", i)
		}
	}
	if err := checkParams(len(points), beta, perm); err != nil {
		return nil, err
	}
	g := bucketGrid{pts: points}
	scale, depth, err := g.scaleFor()
	if err != nil {
		return nil, err
	}
	return assemble(points, beta, scale, perm, depth, g.firstPivots(perm, beta, scale, depth))
}

// BuildMetric constructs an HST over an arbitrary finite metric: n points
// whose pairwise distances come from dist (which must be a metric —
// symmetric, zero exactly on the diagonal, triangle inequality). Alg. 1
// never uses coordinates, only distances, so it embeds road networks or any
// other metric just as well as the plane. Leaf positions (Tree.Point) are
// synthesised on a line and only used for reporting.
func BuildMetric(n int, dist func(a, b int) float64, src *rng.Source) (*Tree, error) {
	perm, beta := drawParams(n, src)
	points := make([]geo.Point, n)
	for i := range points {
		points[i] = geo.Pt(float64(i), 0)
	}
	return BuildMetricWithParams(points, dist, beta, perm)
}

// BuildMetricWithParams is BuildMetric with explicit β and permutation.
// points is retained for Tree.Point reporting; all geometry comes from
// rawDist.
func BuildMetricWithParams(points []geo.Point, rawDist func(a, b int) float64, beta float64, perm []int) (*Tree, error) {
	n := len(points)
	if err := checkParams(n, beta, perm); err != nil {
		return nil, err
	}
	scale, maxDist, err := metricScaleFor(n, rawDist)
	if err != nil {
		return nil, err
	}
	depth := depthFor(scale, maxDist)

	// Balls around one pivot nest, so the levels at which a pivot is the
	// first to reach p form a run below p's highest unassigned level: one
	// distance per (point, pivot) settles all of them.
	sigma := newSigma(depth, n)
	radii := make([]float64, depth)
	cursor := make([]int, n) // highest level at which the point is unassigned
	for level := range radii {
		radii[level] = beta * math.Ldexp(1, level)
	}
	for p := range cursor {
		cursor[p] = depth - 1
	}
	for k, pivot := range perm {
		for p, c := range cursor {
			if c < 0 {
				continue
			}
			d := rawDist(p, pivot) * scale
			for ; c >= 0 && d <= radii[c]; c-- {
				sigma[c][p] = int32(k)
			}
			cursor[p] = c
		}
	}
	return assemble(points, beta, scale, perm, depth, sigma)
}

func checkParams(n int, beta float64, perm []int) error {
	if n == 0 {
		return ErrNoPoints
	}
	if beta < 0.5 || beta > 1 {
		return fmt.Errorf("%w (got %v)", ErrBadBeta, beta)
	}
	if len(perm) != n {
		return fmt.Errorf("%w: length %d for %d points", ErrBadPerm, len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return fmt.Errorf("%w: bad entry %d", ErrBadPerm, p)
		}
		seen[p] = true
	}
	return nil
}

// depthFor returns D: the smallest level whose balls of radius 2^D cover
// the scaled diameter twice over, and at least 1.
func depthFor(scale, maxDist float64) int {
	if maxDist*scale > 0 {
		return max(1, int(math.Ceil(math.Log2(2*maxDist*scale))))
	}
	return 1
}

// newSigma allocates the first-pivot table, one slab of depth·n ranks:
// sigma[level][p] is the rank in perm of the first pivot within β·2^level
// of point p.
func newSigma(depth, n int) [][]int32 {
	slab := make([]int32, depth*n)
	sigma := make([][]int32, depth)
	for level := range sigma {
		sigma[level] = slab[level*n : (level+1)*n : (level+1)*n]
	}
	return sigma
}

// assemble writes the leaf codes straight from the first-pivot table and
// finishes the Tree. Level by level it orders the points by (cluster, pivot
// rank, index) with two stable counting sorts; each run of one (cluster,
// rank) is a child, numbered in ascending rank within its cluster — what
// carving cluster by cluster yields — and every point of it gets that
// digit. Clusters come in code order, so each level's pivots, appended in
// that order, are all Root needs to rebuild the cluster tree.
func assemble(points []geo.Point, beta, scale float64, perm []int, depth int, sigma [][]int32) (*Tree, error) {
	n := len(points)
	all, byRank, order := make([]int, n), make([]int, n), make([]int, n)
	for i := range all {
		all[i] = i
	}
	cluster := make([]int32, n) // index in code order of the cluster holding each point
	counts := make([]int32, n+1)
	slab := make([]byte, n*depth)
	pivots := make([]int32, 0, 2*n)
	clusters, degree := 1, 1
	for level := depth - 1; level >= 0; level-- {
		sig, col := sigma[level], depth-1-level
		countingSort(byRank, all, sig, counts)
		countingSort(order, byRank, cluster, counts[:clusters+1])
		groups, digit := 0, 0
		prevC, prevS := int32(-1), int32(-1)
		for _, p := range order {
			if c, s := cluster[p], sig[p]; c != prevC || s != prevS {
				digit++
				if c != prevC {
					digit = 0
				}
				prevC, prevS = c, s
				groups++
				degree = max(degree, digit+1)
				pivots = append(pivots, int32(perm[s]))
			}
			cluster[p] = int32(groups - 1)
			slab[p*depth+col] = byte(digit)
		}
		clusters = groups
	}
	if clusters != n { // report the first leaf, in code order, that holds more than one point
		clear(counts)
		for _, c := range cluster {
			counts[c]++
		}
		for _, size := range counts {
			if size > 1 {
				return nil, fmt.Errorf("hst: level-0 cluster holds %d points; metric scaling failed", size)
			}
		}
	}
	if degree > 255 {
		return nil, fmt.Errorf("%w (got %d)", ErrDegreeOverflow, degree)
	}
	t := &Tree{pts: points, beta: beta, scale: scale, perm: perm, depth: depth, degree: degree,
		clusters: &clusterTree{pivots: pivots}}
	if err := t.finish(string(slab)); err != nil {
		return nil, err
	}
	return t, nil
}

// countingSort writes src into dst stably ordered by key[p] < len(counts)-1.
func countingSort(dst, src []int, key []int32, counts []int32) {
	clear(counts)
	for _, p := range src {
		counts[key[p]+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	for _, p := range src {
		dst[counts[key[p]]] = p
		counts[key[p]]++
	}
}

// finish lays the leaf codes over one slab of n·D digits, point i's at
// [i·D, (i+1)·D), and indexes them; it refuses two points with one code.
func (t *Tree) finish(slab string) error {
	t.codes = make([]Code, len(t.pts))
	t.byCode = make(map[Code]int, len(t.pts))
	for i := range t.codes {
		c := Code(slab[i*t.depth : (i+1)*t.depth])
		t.codes[i] = c
		if t.byCode[c] = i; len(t.byCode) <= i {
			return fmt.Errorf("hst: leaf codes %d and %d collide", slices.Index(t.codes, c), i)
		}
	}
	return nil
}

// clusterTree is what a built tree keeps of its cluster structure: each
// level's cluster pivots, top-down and in code order, until Root asks for
// the Node tree.
type clusterTree struct {
	once   sync.Once
	pivots []int32
	root   *Node
}

// carve rebuilds the cluster tree from the codes and the pivots: assemble's
// grouping again, on each level's digit in place of the pivot rank (within
// a cluster both order the children alike).
func (t *Tree) carve(pivots []int32) *Node {
	n := len(t.pts)
	root := &Node{Level: t.depth, Pivot: -1, Points: make([]int, n)}
	for i := range root.Points {
		root.Points[i] = i
	}
	current := []*Node{root}
	cluster, digit := make([]int32, n), make([]int32, n)
	byDigit, counts := make([]int, n), make([]int32, max(n, t.degree)+1)
	for level := t.depth - 1; level >= 0; level-- {
		for p, c := range t.codes {
			digit[p] = int32(c[t.depth-1-level])
		}
		order := make([]int, n) // becomes the children's Points, back to back
		countingSort(byDigit, root.Points, digit, counts[:t.degree+1])
		countingSort(order, byDigit, cluster, counts[:len(current)+1])
		var next []*Node
		for i, first := 0, 0; i < n; {
			p := order[i]
			j := i + 1
			for j < n && cluster[order[j]] == cluster[p] && digit[order[j]] == digit[p] {
				j++
			}
			next = append(next, &Node{Level: level, Pivot: int(pivots[0]), Points: order[i:j:j]})
			pivots = pivots[1:]
			if j == n || cluster[order[j]] != cluster[p] {
				current[cluster[p]].Children = next[first:len(next):len(next)]
				first = len(next)
			}
			for _, q := range order[i:j] {
				cluster[q] = int32(len(next) - 1)
			}
			i = j
		}
		current = next
	}
	return root
}

// metricScaleFor returns the factor by which distances must be multiplied
// so that the minimum pairwise distance exceeds 1 (so level-0 balls of
// radius β ≤ 1 isolate single points), along with the metric's diameter.
// It errors on coincident points, on non-finite or negative values, on a
// non-zero diagonal and on dist(j,i) ≠ dist(i,j): the builder reads both
// orders, and a one-way shortcut would let the tree contract distances.
// Symmetry is held to a relative 1e-9: shortest-path tables summed from
// either end (roadnet.Metric) differ in the last bits.
func metricScaleFor(n int, dist func(a, b int) float64) (scale, maxDist float64, err error) {
	minDist := math.Inf(1)
	for i := 0; i < n; i++ {
		if d := dist(i, i); d != 0 {
			return 0, 0, fmt.Errorf("hst: dist(%d,%d) = %v is not a valid metric value", i, i, d)
		}
		for j := i + 1; j < n; j++ {
			d := dist(i, j)
			if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
				return 0, 0, fmt.Errorf("hst: dist(%d,%d) = %v is not a valid metric value", i, j, d)
			}
			if d == 0 {
				return 0, 0, fmt.Errorf("%w: points %d and %d coincide", ErrDuplicatePoints, i, j)
			}
			if back := dist(j, i); !(math.Abs(back-d) <= 1e-9*d) {
				return 0, 0, fmt.Errorf("%w: dist(%d,%d) = %v but dist(%d,%d) = %v", ErrAsymmetricMetric, i, j, d, j, i, back)
			}
			minDist = min(minDist, d)
			maxDist = max(maxDist, d)
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
