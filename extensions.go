package pombm

import (
	"io"

	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/match"
	"github.com/pombm/pombm/internal/privacy"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/roadnet"
	"github.com/pombm/pombm/internal/workload"
)

// Extensions beyond the paper's evaluation: road-network metrics, the
// Bansal et al. chain matcher, budget accounting, and workload file I/O.

// Road networks.
type (
	// RoadGraph is a weighted undirected road network.
	RoadGraph = roadnet.Graph
	// RoadMetric is a dense network-distance table over selected nodes.
	RoadMetric = roadnet.Metric
)

// NewRoadGraph returns an empty road network.
func NewRoadGraph() *RoadGraph { return roadnet.NewGraph() }

// ManhattanNetwork generates a grid road network over a region with
// per-segment congestion factors in [1, 1+congestion] and a blockFrac
// fraction of segments removed while keeping the network connected.
func ManhattanNetwork(region Rect, cols, rows int, congestion, blockFrac float64, seed uint64) (*RoadGraph, error) {
	return roadnet.Manhattan(region, cols, rows, congestion, blockFrac, rng.New(seed))
}

// BuildHSTOverMetric constructs an HST over an arbitrary finite metric
// (e.g. a RoadMetric's Dist): Alg. 1 consumes only pairwise distances.
func BuildHSTOverMetric(n int, dist func(i, j int) float64, seed uint64) (*HST, error) {
	return hst.BuildMetric(n, dist, rng.New(seed))
}

// HSTChain is the randomized chain matcher of Bansal et al. (reference
// [19] of the paper), an alternative to HST-Greedy with better worst-case
// guarantees on trees.
type HSTChain = match.HSTChain

// NewHSTChain returns the chain matcher over reported worker leaves.
func NewHSTChain(tree *HST, workers []Code) (*HSTChain, error) {
	return match.NewHSTChain(tree, workers)
}

// HSTGreedyCapacitated is HST-Greedy with per-worker task capacities
// (couriers batching several orders); capacity 1 recovers Alg. 4.
type HSTGreedyCapacitated = match.HSTGreedyCapacitated

// NewHSTGreedyCapacitated builds the capacitated matcher.
func NewHSTGreedyCapacitated(tree *HST, workers []Code, capacity []int) (*HSTGreedyCapacitated, error) {
	return match.NewHSTGreedyCapacitated(tree, workers, capacity)
}

// OptimalCapacitated computes the offline minimum-cost assignment under
// per-worker capacities, on the same solver as OptimalMatching.
func OptimalCapacitated(nTasks int, capacity []int, dist func(task, worker int) float64) ([]int, float64, error) {
	return match.OptimalCapacitated(nTasks, capacity, dist)
}

// EuclideanGreedyIndexed answers Euclidean-greedy queries through a
// bucketed dynamic nearest-neighbour index; identical assignments to
// EuclideanGreedy at a fraction of the cost.
type EuclideanGreedyIndexed = match.EuclideanGreedyIndexed

// NewEuclideanGreedyIndexed builds the indexed Euclidean matcher.
func NewEuclideanGreedyIndexed(region Rect, workers []Point) (*EuclideanGreedyIndexed, error) {
	return match.NewEuclideanGreedyIndexed(region, workers)
}

// Accountant tracks per-agent Geo-I budget under sequential composition.
type Accountant = privacy.Accountant

// NewAccountant returns an accountant enforcing a lifetime ε budget per
// agent id.
func NewAccountant(limit float64) (*Accountant, error) {
	return privacy.NewAccountant(limit)
}

// ReadInstanceCSV parses a workload from "kind,x,y" CSV (tasks in arrival
// order), as produced by WriteInstanceCSV and cmd/pombm-gen.
func ReadInstanceCSV(r io.Reader) (*Instance, error) {
	return workload.ReadCSV(r)
}

// WriteInstanceCSV serialises a workload instance.
func WriteInstanceCSV(w io.Writer, in *Instance) error {
	return in.WriteCSV(w)
}
