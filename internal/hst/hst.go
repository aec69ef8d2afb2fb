// Package hst implements Hierarchically Well-Separated Trees (Fakcharoenphol,
// Rao, Talwar STOC'03) as used by the tree-based privacy framework of Tao et
// al. (ICDE 2020, Alg. 1).
//
// An HST here is a tree embedding of a finite point set ("predefined
// points"): leaves sit at level 0 and correspond 1:1 to points, the edge
// from a node at level i to its parent has length 2^(i+1), and therefore
// two leaves whose least common ancestor (LCA) is at level ℓ are at tree
// distance 2^(ℓ+2) − 4.
//
// The paper pads the tree with fake nodes into a *complete* c-ary tree
// (Alg. 1 lines 14-15). Materialising the fake subtrees costs O(c^D) memory,
// which is infeasible for the branching factors ball carving produces on
// realistic point sets, so this package represents the complete tree
// *virtually* through leaf codes: a leaf of the complete tree is exactly a
// string of D digits in base c (the child indexes along the root-to-leaf
// path). Real leaves carry the codes assigned by the construction; every
// other digit string denotes a fake leaf. All quantities the privacy
// mechanism and the matcher need (LCA levels, tree distances, sibling-set
// sizes) are functions of codes alone, so the two representations are
// interchangeable and the virtual one is exact, not an approximation.
//
// Construction (build.go, planar.go) is near-linear for planar input and
// O(N²) distance calls for an arbitrary metric, and yields bit for bit the
// tree of the literal cluster-by-cluster carve of Alg. 1; see Build.
package hst

import (
	"errors"
	"fmt"
	"math"

	"github.com/pombm/pombm/internal/geo"
)

// Code identifies a leaf of the complete c-ary HST: byte j holds the child
// index taken at depth j on the root-to-leaf path (so len(Code) == D).
// Codes are comparable and usable as map keys.
type Code string

// Node is a cluster node of the real (pre-completion) HST. It is retained
// for inspection, DOT export, and tests; the mechanism and matcher work on
// codes instead.
type Node struct {
	Level    int     // leaves are level 0, the root is level D
	Pivot    int     // index of the permutation point whose ball carved this cluster; -1 for the root
	Points   []int   // indexes of the predefined points contained in this cluster
	Children []*Node // ordered as carved; child j has digit j
}

// Tree is an HST over a fixed set of predefined points, together with the
// virtual completion metadata (depth D and degree c).
type Tree struct {
	pts    []geo.Point
	beta   float64
	scale  float64
	perm   []int
	root   *Node // nil when reconstructed from a Published view
	depth  int
	degree int
	codes  []Code
	byCode map[Code]int
}

// Validation errors returned by Build.
var (
	ErrNoPoints         = errors.New("hst: need at least one point")
	ErrDuplicatePoints  = errors.New("hst: predefined points must be distinct")
	ErrDegreeOverflow   = errors.New("hst: branching factor exceeds 255")
	ErrBadBeta          = errors.New("hst: beta must lie in [1/2, 1]")
	ErrBadPerm          = errors.New("hst: perm must be a permutation of the point indexes")
	ErrAsymmetricMetric = errors.New("hst: metric is not symmetric")
)

// Depth returns D, the level of the root. Leaf codes have length D.
func (t *Tree) Depth() int { return t.depth }

// Degree returns c, the branching factor of the complete tree.
func (t *Tree) Degree() int { return t.degree }

// NumPoints returns the number of predefined points (N in the paper).
func (t *Tree) NumPoints() int { return len(t.pts) }

// Points returns the predefined points. Callers must not modify the slice.
func (t *Tree) Points() []geo.Point { return t.pts }

// Point returns the predefined point with index i.
func (t *Tree) Point(i int) geo.Point { return t.pts[i] }

// Beta returns the radius factor β drawn during construction.
func (t *Tree) Beta() float64 { return t.beta }

// Scale returns the internal metric scale factor applied before carving
// (1 unless the minimum pairwise distance required rescaling; see Build).
func (t *Tree) Scale() float64 { return t.scale }

// Perm returns the pivot permutation used during construction (point
// indexes in carving priority order); nil for reconstructed trees.
func (t *Tree) Perm() []int { return t.perm }

// Root returns the real cluster tree, or nil when the tree was
// reconstructed from its published form.
func (t *Tree) Root() *Node { return t.root }

// CodeOf returns the leaf code of predefined point i.
func (t *Tree) CodeOf(i int) Code { return t.codes[i] }

// PointOf returns the predefined point index for a real leaf code.
// ok is false for fake leaves.
func (t *Tree) PointOf(c Code) (int, bool) {
	i, ok := t.byCode[c]
	return i, ok
}

// LCALevel returns the level of the least common ancestor of two leaves of
// the complete tree: D minus the length of their longest common digit
// prefix, and 0 when the codes are equal.
func (t *Tree) LCALevel(a, b Code) int {
	for j := 0; j < t.depth; j++ {
		if a[j] != b[j] {
			return t.depth - j
		}
	}
	return 0
}

// Dist returns the tree distance between two leaves: 2^(ℓ+2) − 4 where ℓ
// is their LCA level, and 0 for equal codes.
func (t *Tree) Dist(a, b Code) float64 {
	return LevelDist(t.LCALevel(a, b))
}

// LevelDist returns the tree distance between two leaves whose LCA is at
// the given level: 2^(ℓ+2) − 4, with LevelDist(0) = 0.
func LevelDist(level int) float64 {
	if level <= 0 {
		return 0
	}
	return math.Ldexp(1, level+2) - 4
}

// SiblingSetSize returns |L_i(x)|: the number of leaves of the complete
// tree whose LCA with a fixed leaf x is exactly at level i. It is 1 for
// i = 0 and (c−1)·c^(i−1) for i ≥ 1, independent of x.
func (t *Tree) SiblingSetSize(i int) float64 {
	if i == 0 {
		return 1
	}
	return float64(t.degree-1) * math.Pow(float64(t.degree), float64(i-1))
}

// TotalLeaves returns c^D, the leaf count of the complete tree, as a
// float64 (it routinely exceeds uint64 range).
func (t *Tree) TotalLeaves() float64 {
	return math.Pow(float64(t.degree), float64(t.depth))
}

// ValidCode reports whether c is a well-formed leaf code for this tree:
// CheckCode without the error, for a loop that only skips what is malformed.
func (t *Tree) ValidCode(c Code) bool {
	if len(c) != t.depth {
		return false
	}
	for j := 0; j < len(c); j++ {
		if int(c[j]) >= t.degree {
			return false
		}
	}
	return true
}

// CheckCode returns an error when c is not a well-formed leaf code.
func (t *Tree) CheckCode(c Code) error {
	if !t.ValidCode(c) {
		return fmt.Errorf("hst: invalid leaf code %q for tree with D=%d c=%d", string(c), t.depth, t.degree)
	}
	return nil
}
