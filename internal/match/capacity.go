package match

import (
	"errors"
	"fmt"

	"github.com/pombm/pombm/internal/hst"
)

// Capacity-constrained matching: each worker may serve up to capacity[i]
// tasks before being exhausted. This models multi-task workers (couriers
// batching orders — the "multi-worker-aware planning" setting the paper's
// introduction cites) and generalises the one-shot matchers, which are the
// capacity-1 special case.

// HSTGreedyCapacitated assigns each arriving task to a tree-nearest worker
// with remaining capacity, through the leaf-code trie (O(D) per task).
type HSTGreedyCapacitated struct {
	tree      *hst.Tree
	codes     []hst.Code
	left      []int
	index     *hst.LeafIndex
	remaining int // total remaining capacity
}

// NewHSTGreedyCapacitated builds the matcher; capacity[i] is worker i's
// task budget (must be non-negative).
func NewHSTGreedyCapacitated(tree *hst.Tree, workers []hst.Code, capacity []int) (*HSTGreedyCapacitated, error) {
	if len(capacity) != len(workers) {
		return nil, fmt.Errorf("match: %d capacities for %d workers", len(capacity), len(workers))
	}
	idx := hst.NewLeafIndexDegree(tree.Depth(), tree.Degree())
	total := 0
	for i, c := range workers {
		if capacity[i] < 0 {
			return nil, errors.New("match: negative capacity")
		}
		if capacity[i] > 0 {
			if err := idx.Insert(c, i); err != nil {
				return nil, err
			}
			total += capacity[i]
		}
	}
	return &HSTGreedyCapacitated{
		tree:      tree,
		codes:     workers,
		left:      append([]int(nil), capacity...),
		index:     idx,
		remaining: total,
	}, nil
}

// Remaining returns the total remaining capacity across workers.
func (g *HSTGreedyCapacitated) Remaining() int { return g.remaining }

// Assign matches the task to a tree-nearest worker with spare capacity,
// consuming one unit. Returns NoWorker when all capacity is spent.
func (g *HSTGreedyCapacitated) Assign(t hst.Code) int {
	id, _, ok := g.index.Nearest(t)
	if !ok {
		return NoWorker
	}
	g.left[id]--
	g.remaining--
	if g.left[id] == 0 {
		g.index.Remove(g.codes[id], id)
	}
	return id
}
