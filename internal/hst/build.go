package hst

import (
	"fmt"
	"math"

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
// first pivot once per point and level and then assembles the cluster tree
// top-down by grouping each cluster's points on it. For planar input the
// first pivots come from sweeping the pivots over a bucket grid of the
// still-unassigned points, O(N·D) grid work plus an O(N log N) hull for the
// diameter; for an arbitrary metric from one pivot-ordered sweep that
// evaluates each ordered pair once, O(N²) distance calls in total. The tree
// is, bit for bit, the one the cluster-by-cluster carve yields (the tests
// keep that carve as the differential reference): the distance predicate is
// literally dist(p, pivot)·scale ≤ β·2^i.
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
	scale, maxDist, err := g.scaleFor()
	if err != nil {
		return nil, err
	}
	depth := depthFor(scale, maxDist)
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

// newSigma allocates the first-pivot table: sigma[level][p] is the rank in
// perm of the first pivot within β·2^level of point p.
func newSigma(depth, n int) [][]int32 {
	sigma := make([][]int32, depth)
	for level := range sigma {
		sigma[level] = make([]int32, n)
	}
	return sigma
}

// assemble builds the cluster tree from the first-pivot table and finishes
// the Tree. Level by level it orders the points by (cluster, pivot rank,
// index) with two stable counting sorts and cuts that order into children:
// children in ascending pivot rank, Points in ascending index, clusters in
// the order their parents were cut — what carving cluster by cluster yields.
func assemble(points []geo.Point, beta, scale float64, perm []int, depth int, sigma [][]int32) (*Tree, error) {
	n := len(points)
	root := &Node{Level: depth, Pivot: -1, Points: make([]int, n)}
	for i := range root.Points {
		root.Points[i] = i
	}
	current := []*Node{root}
	cluster := make([]int32, n) // index in current of the cluster holding each point
	byRank := make([]int, n)
	counts := make([]int32, n+1)
	for level := depth - 1; level >= 0; level-- {
		sig := sigma[level]
		order := make([]int, n) // becomes the children's Points, back to back
		countingSort(byRank, root.Points, sig, counts)
		countingSort(order, byRank, cluster, counts[:len(current)+1])

		groups := 0
		for i, p := range order {
			if i == 0 || cluster[p] != cluster[order[i-1]] || sig[p] != sig[order[i-1]] {
				groups++
			}
		}
		nodes := make([]Node, groups)
		next := make([]*Node, groups)
		for i, g, first := 0, 0, 0; i < n; g++ {
			p := order[i]
			j := i + 1
			for j < n && cluster[order[j]] == cluster[p] && sig[order[j]] == sig[p] {
				j++
			}
			nodes[g] = Node{Level: level, Pivot: perm[sig[p]], Points: order[i:j:j]}
			next[g] = &nodes[g]
			if j == n || cluster[order[j]] != cluster[p] {
				current[cluster[p]].Children = next[first : g+1 : g+1]
				first = g + 1
			}
			for _, q := range order[i:j] {
				cluster[q] = int32(g)
			}
			i = j
		}
		current = next
	}

	t := &Tree{pts: points, beta: beta, scale: scale, perm: perm, root: root, depth: depth}
	if err := t.finish(current); err != nil {
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

// finish validates the leaves, computes the branching factor, and assigns
// leaf codes by walking root-to-leaf paths.
func (t *Tree) finish(leaves []*Node) error {
	for _, leaf := range leaves {
		if len(leaf.Points) != 1 {
			return fmt.Errorf("hst: level-0 cluster holds %d points; metric scaling failed", len(leaf.Points))
		}
	}
	degree := 1
	var maxDegree func(*Node)
	maxDegree = func(n *Node) {
		degree = max(degree, len(n.Children))
		for _, ch := range n.Children {
			maxDegree(ch)
		}
	}
	maxDegree(t.root)
	if degree > 255 {
		return fmt.Errorf("%w (got %d)", ErrDegreeOverflow, degree)
	}
	t.degree = degree

	t.codes = make([]Code, len(t.pts))
	t.byCode = make(map[Code]int, len(t.pts))
	path := make([]byte, 0, t.depth)
	var assign func(*Node) error
	assign = func(n *Node) error {
		if n.Level == 0 {
			code := Code(path)
			p := n.Points[0]
			t.codes[p] = code
			if prev, dup := t.byCode[code]; dup {
				return fmt.Errorf("hst: points %d and %d share leaf code", prev, p)
			}
			t.byCode[code] = p
			return nil
		}
		for j, ch := range n.Children {
			path = append(path, byte(j))
			if err := assign(ch); err != nil {
				return err
			}
			path = path[:len(path)-1]
		}
		return nil
	}
	return assign(t.root)
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
