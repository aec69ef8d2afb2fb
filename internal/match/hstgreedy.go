package match

import (
	"github.com/pombm/pombm/internal/hst"
)

// HSTGreedyScan is Alg. 4 exactly as analysed in the paper: for each
// arriving task (an obfuscated leaf code) it scans every unassigned worker
// and picks one at minimal tree distance, O(D·n) per task. Ties are broken
// towards the lowest worker index.
type HSTGreedyScan struct {
	tree      *hst.Tree
	codes     []hst.Code
	used      []bool
	remaining int
}

// NewHSTGreedyScan returns the paper-faithful matcher over the reported
// worker leaf codes.
func NewHSTGreedyScan(tree *hst.Tree, workers []hst.Code) *HSTGreedyScan {
	return &HSTGreedyScan{
		tree:      tree,
		codes:     workers,
		used:      make([]bool, len(workers)),
		remaining: len(workers),
	}
}

// Remaining returns the number of unassigned workers.
func (g *HSTGreedyScan) Remaining() int { return g.remaining }

// Assign matches the task with obfuscated leaf t to a tree-nearest
// unassigned worker and consumes it. Returns NoWorker when exhausted.
func (g *HSTGreedyScan) Assign(t hst.Code) int {
	if g.remaining == 0 {
		return NoWorker
	}
	best, bestLvl := NoWorker, g.tree.Depth()+1
	for i, c := range g.codes {
		if g.used[i] {
			continue
		}
		if lvl := g.tree.LCALevel(t, c); lvl < bestLvl {
			best, bestLvl = i, lvl
			if lvl == 0 {
				break // cannot improve on a co-located worker
			}
		}
	}
	g.used[best] = true
	g.remaining--
	return best
}

// HSTGreedyTrie implements the same assignment rule through the leaf-code
// trie, answering each task in O(D) instead of O(D·n). Within an LCA level
// ties break towards the lowest worker index, as in HSTGreedyScan, so the
// two answer the same worker id for every task.
type HSTGreedyTrie struct {
	tree      *hst.Tree
	index     *hst.LeafIndex
	remaining int
}

// NewHSTGreedyTrie returns the indexed matcher over the reported worker
// leaf codes.
func NewHSTGreedyTrie(tree *hst.Tree, workers []hst.Code) (*HSTGreedyTrie, error) {
	idx := hst.NewLeafIndexDegree(tree.Depth(), tree.Degree())
	for i, c := range workers {
		if err := idx.Insert(c, i); err != nil {
			return nil, err
		}
	}
	return &HSTGreedyTrie{
		tree:      tree,
		index:     idx,
		remaining: len(workers),
	}, nil
}

// Remaining returns the number of unassigned workers.
func (g *HSTGreedyTrie) Remaining() int { return g.remaining }

// Assign matches the task with obfuscated leaf t to a tree-nearest
// unassigned worker and consumes it. Returns NoWorker when exhausted.
func (g *HSTGreedyTrie) Assign(t hst.Code) int {
	id, _, ok := g.index.PopNearest(t)
	if !ok {
		return NoWorker
	}
	g.remaining--
	return id
}
