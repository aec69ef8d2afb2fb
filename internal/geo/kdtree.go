package geo

import (
	"math"
	"sort"
)

// KDTree is a static 2-d tree over a fixed point set, supporting
// nearest-neighbour queries. It is used to snap locations to arbitrary
// (non-grid) predefined point sets, e.g. points sampled from a workload.
//
// The tree stores indexes into the original slice so callers can map the
// nearest point back to application data. Construction is O(n log² n)
// (sort per level); queries are O(log n) expected.
type KDTree struct {
	pts   []Point
	nodes []kdNode
	root  int
}

type kdNode struct {
	idx         int // index into pts
	left, right int // node indexes, -1 when absent
	axis        uint8
}

// NewKDTree builds a kd-tree over pts. The slice is not copied; the caller
// must not mutate it while the tree is in use. An empty tree is valid and
// Nearest on it returns (-1, +Inf).
func NewKDTree(pts []Point) *KDTree {
	t := &KDTree{pts: pts, root: -1}
	if len(pts) == 0 {
		return t
	}
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	t.nodes = make([]kdNode, 0, len(pts))
	t.root = t.build(idx, 0)
	return t
}

func (t *KDTree) build(idx []int, depth int) int {
	if len(idx) == 0 {
		return -1
	}
	axis := uint8(depth % 2)
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := t.pts[idx[a]], t.pts[idx[b]]
		if axis == 0 {
			return pa.X < pb.X
		}
		return pa.Y < pb.Y
	})
	mid := len(idx) / 2
	n := kdNode{idx: idx[mid], axis: axis, left: -1, right: -1}
	pos := len(t.nodes)
	t.nodes = append(t.nodes, n)
	// Children must be built after appending so pos is stable.
	left := t.build(idx[:mid], depth+1)
	right := t.build(idx[mid+1:], depth+1)
	t.nodes[pos].left = left
	t.nodes[pos].right = right
	return pos
}

// Len returns the number of indexed points.
func (t *KDTree) Len() int { return len(t.pts) }

// Nearest returns the index of the point closest to q and its distance.
// For an empty tree it returns (-1, +Inf).
func (t *KDTree) Nearest(q Point) (int, float64) {
	best := -1
	bestD2 := math.Inf(1)
	t.search(t.root, q, &best, &bestD2)
	if best < 0 {
		return -1, math.Inf(1)
	}
	return best, math.Sqrt(bestD2)
}

func (t *KDTree) search(node int, q Point, best *int, bestD2 *float64) {
	if node < 0 {
		return
	}
	n := t.nodes[node]
	p := t.pts[n.idx]
	if d2 := q.Dist2(p); d2 < *bestD2 {
		*bestD2 = d2
		*best = n.idx
	}
	var delta float64
	if n.axis == 0 {
		delta = q.X - p.X
	} else {
		delta = q.Y - p.Y
	}
	near, far := n.left, n.right
	if delta > 0 {
		near, far = far, near
	}
	t.search(near, q, best, bestD2)
	if delta*delta < *bestD2 {
		t.search(far, q, best, bestD2)
	}
}
