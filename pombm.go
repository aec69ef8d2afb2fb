// Package pombm is a Go implementation of privacy-preserving online task
// assignment for spatial crowdsourcing, reproducing "Differentially Private
// Online Task Assignment in Spatial Crowdsourcing: A Tree-based Approach"
// (Tao, Tong, Zhou, Shi, Chen, Xu — ICDE 2020).
//
// The library provides:
//
//   - Hierarchically Well-Separated Trees (HSTs) built over a published set
//     of predefined points (Alg. 1), with O(D) leaf-code operations.
//   - The paper's ε-Geo-Indistinguishable privacy mechanism on HST leaves,
//     with the O(D) random-walk sampler (Algs. 2–3).
//   - Online matchers: HST-Greedy (Alg. 4, scan and trie-indexed forms),
//     Euclidean greedy, the offline optimum (with or without capacities),
//     and the matching-size matchers of the paper's case study.
//   - Baseline mechanisms (planar Laplace of Andrés et al., grid
//     exponential), ready-made pipelines (TBF, Lap-GR, Lap-HG, Prob),
//     workload generators, the full experiment harness for every figure in
//     the paper, and a client/server platform with HTTP transport where
//     obfuscation happens on the agents' side.
//
// This file is the public facade: the implementation lives in internal/
// packages and is re-exported here through type aliases, so downstream
// users import only this package (plus its documented method sets).
//
// Quick start:
//
//	env, _ := pombm.NewEnv(pombm.NewRect(pombm.Pt(0, 0), pombm.Pt(200, 200)), 32, 32, 1)
//	inst, _ := pombm.SyntheticInstance(pombm.SyntheticParams{
//		NumTasks: 100, NumWorkers: 150, Mu: 100, Sigma: 20,
//	}, 7)
//	res, _ := pombm.Run(pombm.AlgTBF, env, inst, pombm.Options{Epsilon: 0.6}, 42)
//	fmt.Println(res.TotalDistance)
package pombm

import (
	"github.com/pombm/pombm/internal/core"
	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/match"
	"github.com/pombm/pombm/internal/privacy"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// Geometry.
type (
	// Point is a location in the Euclidean plane.
	Point = geo.Point
	// Rect is an axis-aligned rectangle.
	Rect = geo.Rect
	// Grid is a uniform lattice of predefined points.
	Grid = geo.Grid
)

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return geo.Pt(x, y) }

// NewRect returns the rectangle spanned by two corners in any order.
func NewRect(a, b Point) Rect { return geo.NewRect(a, b) }

// NewGrid builds a cols × rows grid of predefined points over a region.
func NewGrid(region Rect, cols, rows int) (*Grid, error) {
	return geo.NewGrid(region, cols, rows)
}

// HST types.
type (
	// HST is a hierarchically well-separated tree over predefined points.
	HST = hst.Tree
	// Code identifies a leaf of the (virtually complete) HST.
	Code = hst.Code
	// PublishedHST is the wire form of an HST.
	PublishedHST = hst.Published
	// LeafIndex is a trie over leaf codes with O(D) nearest queries.
	LeafIndex = hst.LeafIndex
)

// BuildHST constructs an HST over the points (Alg. 1) with randomness
// derived from seed.
func BuildHST(points []Point, seed uint64) (*HST, error) {
	return hst.Build(points, rng.New(seed))
}

// BuildHSTWithParams constructs an HST with an explicit radius factor
// β ∈ [1/2, 1] and pivot permutation, for deterministic deployments.
func BuildHSTWithParams(points []Point, beta float64, perm []int) (*HST, error) {
	return hst.BuildWithParams(points, beta, perm)
}

// LevelDist returns the HST distance between leaves whose LCA is at the
// given level: 2^(ℓ+2) − 4.
func LevelDist(level int) float64 { return hst.LevelDist(level) }

// NewLeafIndex returns an empty leaf-code index for the tree: the
// arena-backed flat trie behind the assignment engine, with O(D)
// insert/remove/nearest and allocation-free steady-state operation.
func NewLeafIndex(tree *HST) *LeafIndex {
	return hst.NewLeafIndexDegree(tree.Depth(), tree.Degree())
}

// Privacy mechanisms.
type (
	// HSTMechanism is the paper's ε-Geo-Indistinguishable tree mechanism.
	HSTMechanism = privacy.HSTMechanism
	// PlanarLaplace is the mechanism of Andrés et al. (CCS'13).
	PlanarLaplace = privacy.PlanarLaplace
	// GridExponential is an exponential mechanism over candidate points.
	GridExponential = privacy.GridExponential
	// GeoIReport is the result of a Geo-Indistinguishability audit.
	GeoIReport = privacy.GeoIReport
)

// NewHSTMechanism builds the tree mechanism for budget eps.
func NewHSTMechanism(tree *HST, eps float64) (*HSTMechanism, error) {
	return privacy.NewHSTMechanism(tree, eps)
}

// NewPlanarLaplace builds the planar Laplace mechanism for budget eps.
func NewPlanarLaplace(eps float64) (*PlanarLaplace, error) {
	return privacy.NewPlanarLaplace(eps)
}

// VerifyHSTGeoI audits Theorem 1 by exact enumeration.
func VerifyHSTGeoI(m *HSTMechanism, slack float64) GeoIReport {
	return privacy.VerifyHSTGeoI(m, slack)
}

// Matching.
type (
	// EuclideanGreedy matches tasks to nearest workers in the plane.
	EuclideanGreedy = match.EuclideanGreedy
	// HSTGreedyScan is Alg. 4 with the paper's O(n) scan per task.
	HSTGreedyScan = match.HSTGreedyScan
	// HSTGreedyTrie is Alg. 4 answered in O(D) per task.
	HSTGreedyTrie = match.HSTGreedyTrie
	// AssignmentEngine is the sharded, concurrency-safe assignment engine
	// itself: per-branch shard locking, atomic Assign, and a batched API.
	AssignmentEngine = engine.Engine
)

// NewAssignmentEngine returns an empty sharded assignment engine over a
// published HST (shards ≤ 0 selects the default). Insert workers, then
// Assign or AssignBatch tasks from any number of goroutines.
func NewAssignmentEngine(tree *HST, shards int) (*AssignmentEngine, error) {
	return engine.New(tree, shards)
}

// NoWorker is returned by matchers when no worker can be assigned.
const NoWorker = match.NoWorker

// OptimalMatching computes the offline optimal matching cost with a
// caller-supplied distance, saturating the smaller side.
func OptimalMatching(nTasks, nWorkers int, dist func(task, worker int) float64) ([]int, float64, error) {
	return match.Optimal(nTasks, nWorkers, dist)
}

// Pipelines.
type (
	// Algorithm names a pipeline (TBF, Lap-GR, Lap-HG, Prob).
	Algorithm = core.Algorithm
	// Env is the published infrastructure: grid plus HST.
	Env = core.Env
	// Options tunes a pipeline run.
	Options = core.Options
	// Result is a distance-objective outcome.
	Result = core.Result
	// SizeResult is a matching-size case-study outcome.
	SizeResult = core.SizeResult
)

// The evaluated pipelines.
const (
	AlgTBF   = core.AlgTBF
	AlgLapGR = core.AlgLapGR
	AlgLapHG = core.AlgLapHG
	AlgProb  = core.AlgProb
)

// NewEnv builds the published infrastructure over a region with randomness
// derived from seed.
func NewEnv(region Rect, cols, rows int, seed uint64) (*Env, error) {
	return core.NewEnv(region, cols, rows, rng.New(seed))
}

// Run executes a distance-objective pipeline (AlgTBF, AlgLapGR, AlgLapHG).
func Run(alg Algorithm, env *Env, inst *Instance, opt Options, seed uint64) (*Result, error) {
	return core.Run(alg, env, inst, opt, rng.New(seed))
}

// RunSize executes a size-objective pipeline (AlgTBF, AlgProb) with
// per-worker reachable radii.
func RunSize(alg Algorithm, env *Env, inst *Instance, reaches []float64, opt Options, seed uint64) (*SizeResult, error) {
	return core.RunSize(alg, env, inst, reaches, opt, rng.New(seed))
}

// Workloads.
type (
	// Instance is one POMBM problem instance.
	Instance = workload.Instance
	// SyntheticParams mirrors Table II.
	SyntheticParams = workload.SyntheticParams
)

// SyntheticInstance draws a Table II workload.
func SyntheticInstance(p SyntheticParams, seed uint64) (*Instance, error) {
	return workload.Synthetic(p, rng.New(seed))
}

// ChengduInstance draws one day (1..30) of the synthetic Chengdu dataset
// with the given fleet size.
func ChengduInstance(day, numWorkers int, seed uint64) (*Instance, error) {
	return workload.Chengdu(workload.ChengduParams{Day: day, NumWorkers: numWorkers}, rng.New(seed))
}

// UniformReaches draws per-worker reachable radii in [lo, hi).
func UniformReaches(n int, lo, hi float64, seed uint64) []float64 {
	return workload.Reaches(n, lo, hi, rng.New(seed))
}

// ShuffleTasks permutes an instance's arrival order (random-order model).
func ShuffleTasks(in *Instance, seed uint64) {
	in.ShuffleTasks(rng.New(seed))
}
