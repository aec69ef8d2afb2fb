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
// with remaining capacity, through the leaf-code trie (O(D) per task): each
// worker is one index item carrying its capacity as units, and a task pops
// one unit of its nearest.
type HSTGreedyCapacitated struct {
	index *hst.LeafIndex
}

// NewHSTGreedyCapacitated builds the matcher; capacity[i] is worker i's
// task budget (non-negative, at most the index's MaxInt32 units).
func NewHSTGreedyCapacitated(tree *hst.Tree, workers []hst.Code, capacity []int) (*HSTGreedyCapacitated, error) {
	if len(capacity) != len(workers) {
		return nil, fmt.Errorf("match: %d capacities for %d workers", len(capacity), len(workers))
	}
	idx := hst.NewLeafIndexDegree(tree.Depth(), tree.Degree())
	for i, c := range workers {
		if capacity[i] < 0 {
			return nil, errors.New("match: negative capacity")
		}
		if capacity[i] > 0 {
			if err := idx.InsertCap(c, i, capacity[i]); err != nil {
				return nil, err
			}
		}
	}
	return &HSTGreedyCapacitated{index: idx}, nil
}

// Remaining returns the total remaining capacity across workers.
func (g *HSTGreedyCapacitated) Remaining() int { return g.index.Units() }

// Assign matches the task to a tree-nearest worker with spare capacity,
// consuming one unit. Returns NoWorker when all capacity is spent.
func (g *HSTGreedyCapacitated) Assign(t hst.Code) int {
	id, _, ok := g.index.PopNearest(t)
	if !ok {
		return NoWorker
	}
	return id
}
