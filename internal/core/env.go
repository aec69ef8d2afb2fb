// Package core is the paper's primary contribution assembled into runnable
// pipelines: the Tree-Based Framework (TBF = HST mechanism + HST-Greedy,
// Sec. III) and the evaluation baselines Lap-GR, Lap-HG (Sec. IV-A) and
// Prob (Sec. IV-C), all driven through the four-step workflow of Fig. 1 —
// publish tree, obfuscate workers, obfuscate arriving tasks, match online.
//
// Pipelines separate client-side work (snapping, obfuscation) from
// server-side work (matching); reported running time covers exactly the
// server-side span "from receiving a task to the completion of the
// assignment", as the paper measures it.
package core

import (
	"fmt"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

// Env is the published infrastructure shared by all parties: the predefined
// point grid and the HST built over it (Fig. 1 step 1). One Env serves many
// pipeline runs; building it is a server-side, once-per-deployment cost.
type Env struct {
	Grid *geo.Grid
	Tree *hst.Tree

	// realLeafIndex resolves any leaf code (including fake leaves) to the
	// nearest real leaf, giving obfuscated nodes a representative position
	// on the published grid when the size case study needs one.
	realLeafIndex *hst.LeafIndex

	// retainedBytes is the GC-settled heap cost of the published
	// infrastructure, charged to tree-based pipelines' memory metric.
	retainedBytes uint64
}

// RetainedBytes reports the measured heap footprint of the grid, tree, and
// leaf index.
func (e *Env) RetainedBytes() uint64 { return e.retainedBytes }

// NewEnv builds the grid and HST for a region. src drives the random
// permutation and β of the HST construction.
func NewEnv(region geo.Rect, cols, rows int, src *rng.Source) (*Env, error) {
	before := markHeap()
	grid, err := geo.NewGrid(region, cols, rows)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	tree, err := hst.Build(grid.Points(), src.Derive("hst"))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	env, err := newEnvFrom(grid, tree)
	if err != nil {
		return nil, err
	}
	env.retainedBytes = retainedSince(before, env)
	return env, nil
}

func newEnvFrom(grid *geo.Grid, tree *hst.Tree) (*Env, error) {
	idx := hst.NewLeafIndexDegree(tree.Depth(), tree.Degree())
	for i := 0; i < tree.NumPoints(); i++ {
		if err := idx.Insert(tree.CodeOf(i), i); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	return &Env{Grid: grid, Tree: tree, realLeafIndex: idx}, nil
}

// SnapCode maps a true location to its leaf code: nearest predefined point,
// then that point's leaf (Fig. 1, "map location to a node on the HST").
func (e *Env) SnapCode(p geo.Point) hst.Code {
	return e.Tree.CodeOf(e.Grid.Snap(p))
}

// LeafPosition returns a Euclidean position for any leaf code: its own
// predefined point for real leaves, or the predefined point of the
// tree-nearest real leaf for fake leaves.
func (e *Env) LeafPosition(c hst.Code) geo.Point {
	if i, ok := e.Tree.PointOf(c); ok {
		return e.Grid.Point(i)
	}
	i, _, ok := e.realLeafIndex.Nearest(c)
	if !ok {
		// Cannot happen: the index always holds all real leaves.
		return e.Grid.Region.Center()
	}
	return e.Grid.Point(i)
}
