// Package match implements the task-assignment algorithms of the POMBM
// evaluation: the Euclidean greedy of Lap-GR, the HST-Greedy of Alg. 4 (in
// the paper's O(n)-scan form and an O(D) trie-indexed form), offline optimal
// matching (on flow.Bipartite, with or without capacities) for
// competitive-ratio measurements, and the matching-size maximisation
// matchers of the Sec. IV-C case study (TBF-size and the Prob baseline).
//
// Matchers are online: they are constructed over the worker set and fed
// tasks one at a time, mirroring the interaction model where tasks appear
// dynamically and must be assigned immediately.
package match

import (
	"math"

	"github.com/pombm/pombm/internal/geo"
)

// NoWorker is returned by Assign methods when no worker can be assigned.
const NoWorker = -1

// EuclideanGreedy assigns each arriving task to the unassigned worker
// nearest in Euclidean distance between the *reported* (obfuscated)
// locations. This is the greedy algorithm of Tong et al. (PVLDB'16) run on
// permuted data — the matcher inside the Lap-GR baseline. O(n) per task.
type EuclideanGreedy struct {
	workers   []geo.Point
	used      []bool
	remaining int
}

// NewEuclideanGreedy returns a matcher over the reported worker locations.
func NewEuclideanGreedy(workers []geo.Point) *EuclideanGreedy {
	return &EuclideanGreedy{
		workers:   workers,
		used:      make([]bool, len(workers)),
		remaining: len(workers),
	}
}

// Remaining returns the number of unassigned workers.
func (g *EuclideanGreedy) Remaining() int { return g.remaining }

// Assign matches the task at reported location t to the nearest unassigned
// worker and consumes that worker. It returns NoWorker when all workers are
// assigned. Ties are broken towards the lowest worker index.
func (g *EuclideanGreedy) Assign(t geo.Point) int {
	if g.remaining == 0 {
		return NoWorker
	}
	best, bestD := NoWorker, math.Inf(1)
	for i, w := range g.workers {
		if g.used[i] {
			continue
		}
		if d := t.Dist2(w); d < bestD {
			best, bestD = i, d
		}
	}
	g.used[best] = true
	g.remaining--
	return best
}
