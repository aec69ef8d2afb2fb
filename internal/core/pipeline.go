package core

import (
	"fmt"
	"time"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/match"
	"github.com/pombm/pombm/internal/privacy"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// Algorithm names the compared pipelines.
type Algorithm string

// The pipelines of the evaluation (Sec. IV-A and IV-C).
const (
	AlgTBF   Algorithm = "TBF"    // HST mechanism + HST-Greedy (ours)
	AlgLapGR Algorithm = "Lap-GR" // planar Laplace + Euclidean greedy
	AlgLapHG Algorithm = "Lap-HG" // planar Laplace + HST-Greedy
	AlgProb  Algorithm = "Prob"   // planar Laplace + probability assignment
)

// Options tunes a pipeline run.
type Options struct {
	Epsilon float64
	// UseTrie selects the O(D) trie-indexed HST-Greedy instead of the
	// paper's O(n) scan. Off by default: the evaluation reproduces the
	// paper's complexity behaviour; the trie is the ablation.
	UseTrie bool
}

// Result summarises one distance-objective run.
type Result struct {
	Algorithm Algorithm
	// TotalDistance is Σ d(t, w) over matched pairs measured between TRUE
	// locations — the objective of Definition 5, which the server never
	// sees but the evaluation scores.
	TotalDistance float64
	// Matched is the number of tasks that received a worker.
	Matched int
	// AssignTime is the cumulative server-side assignment time.
	AssignTime time.Duration
	// MemoryBytes approximates the heap retained by the server-side
	// structures (mechanism inputs, matcher state) during the run.
	MemoryBytes uint64
}

// MeanLatency returns the average server-side time per task.
func (r *Result) MeanLatency() time.Duration {
	if r.Matched == 0 {
		return 0
	}
	return r.AssignTime / time.Duration(r.Matched)
}

// Run executes the named distance-objective pipeline on an instance.
func Run(alg Algorithm, env *Env, inst *workload.Instance, opt Options, src *rng.Source) (*Result, error) {
	switch alg {
	case AlgTBF:
		return RunTBF(env, inst, opt, src)
	case AlgLapGR:
		return RunLapGR(env, inst, opt, src)
	case AlgLapHG:
		return RunLapHG(env, inst, opt, src)
	default:
		return nil, fmt.Errorf("core: unknown distance-objective algorithm %q", alg)
	}
}

// RunTBF is the paper's framework: snap → HST mechanism (random walk) →
// HST-Greedy on obfuscated leaves.
func RunTBF(env *Env, inst *workload.Instance, opt Options, src *rng.Source) (*Result, error) {
	mech, err := privacy.NewHSTMechanism(env.Tree, opt.Epsilon)
	if err != nil {
		return nil, err
	}
	// Client side: every worker and task obfuscates its own snapped leaf.
	workerCodes := obfuscateHST(env, mech, inst.Workers, src.Derive("workers"))
	taskCodes := obfuscateHST(env, mech, inst.Tasks, src.Derive("tasks"))

	res := &Result{Algorithm: AlgTBF}
	assign, err := newHSTAssigner(env.Tree, workerCodes, opt)
	if err != nil {
		return nil, err
	}
	for i := range inst.Tasks {
		start := time.Now()
		w := assign(taskCodes[i])
		res.AssignTime += time.Since(start)
		score(res, inst, i, w)
	}
	res.MemoryBytes = env.RetainedBytes() + codesBytes(workerCodes) + codesBytes(taskCodes) + boolsBytes(len(workerCodes))
	return res, nil
}

// RunLapGR obfuscates both sides with planar Laplace and matches greedily
// in the Euclidean plane.
func RunLapGR(env *Env, inst *workload.Instance, opt Options, src *rng.Source) (*Result, error) {
	lap, err := privacy.NewPlanarLaplace(opt.Epsilon)
	if err != nil {
		return nil, err
	}
	wSrc := src.Derive("workers")
	reportedW := make([]geo.Point, len(inst.Workers))
	for i, w := range inst.Workers {
		reportedW[i] = lap.ObfuscatePoint(w, wSrc)
	}
	tSrc := src.Derive("tasks")
	reportedT := make([]geo.Point, len(inst.Tasks))
	for i, t := range inst.Tasks {
		reportedT[i] = lap.ObfuscatePoint(t, tSrc)
	}

	res := &Result{Algorithm: AlgLapGR}
	g := match.NewEuclideanGreedy(reportedW)
	for i := range inst.Tasks {
		start := time.Now()
		w := g.Assign(reportedT[i])
		res.AssignTime += time.Since(start)
		score(res, inst, i, w)
	}
	res.MemoryBytes = pointsBytes(reportedW) + pointsBytes(reportedT) + boolsBytes(len(reportedW))
	return res, nil
}

// RunLapHG obfuscates with planar Laplace, snaps the noisy locations onto
// the published HST (post-processing, so ε-Geo-I is preserved) and runs
// HST-Greedy, the Meyerson-style tree matcher.
func RunLapHG(env *Env, inst *workload.Instance, opt Options, src *rng.Source) (*Result, error) {
	lap, err := privacy.NewPlanarLaplace(opt.Epsilon)
	if err != nil {
		return nil, err
	}
	obf := func(p geo.Point, s *rng.Source) hst.Code {
		return env.SnapCode(lap.ObfuscatePoint(p, s))
	}
	workerCodes := obfuscateAll(inst.Workers, src.Derive("workers"), obf)
	taskCodes := obfuscateAll(inst.Tasks, src.Derive("tasks"), obf)

	res := &Result{Algorithm: AlgLapHG}
	assign, err := newHSTAssigner(env.Tree, workerCodes, opt)
	if err != nil {
		return nil, err
	}
	for i := range inst.Tasks {
		start := time.Now()
		w := assign(taskCodes[i])
		res.AssignTime += time.Since(start)
		score(res, inst, i, w)
	}
	res.MemoryBytes = env.RetainedBytes() + codesBytes(workerCodes) + codesBytes(taskCodes) + boolsBytes(len(workerCodes))
	return res, nil
}

// newHSTAssigner returns the configured HST-Greedy implementation as a
// plain assign function.
func newHSTAssigner(tree *hst.Tree, workers []hst.Code, opt Options) (func(hst.Code) int, error) {
	if opt.UseTrie {
		g, err := match.NewHSTGreedyTrie(tree, workers)
		if err != nil {
			return nil, err
		}
		return g.Assign, nil
	}
	g := match.NewHSTGreedyScan(tree, workers)
	return g.Assign, nil
}

// obfuscateHST maps every true location through snap + the HST mechanism.
// The whole wave goes through the mechanism's one-pass sampler, drawing from
// src in item order — exactly the random stream the per-item loop drew, so
// results are bit-for-bit unchanged while the per-item buffer and string
// allocations are amortised away. The snap may run on the sampler's helper
// goroutine; it only reads env and pts.
func obfuscateHST(env *Env, mech *privacy.HSTMechanism, pts []geo.Point, src *rng.Source) []hst.Code {
	return mech.ObfuscateEach(len(pts), func(i int) hst.Code { return env.SnapCode(pts[i]) }, src)
}

// obfuscateAll maps every point through obf into a leaf code; the
// non-tree pipelines (planar Laplace + snap) use it. Items draw
// sequentially from src, preserving the exact random stream the harness
// has always produced.
func obfuscateAll(pts []geo.Point, src *rng.Source, obf func(geo.Point, *rng.Source) hst.Code) []hst.Code {
	codes := make([]hst.Code, len(pts))
	for i, p := range pts {
		codes[i] = obf(p, src)
	}
	return codes
}

// score accumulates the true-distance objective for task i matched to w.
func score(res *Result, inst *workload.Instance, i, w int) {
	if w == match.NoWorker {
		return
	}
	res.Matched++
	res.TotalDistance += inst.Tasks[i].Dist(inst.Workers[w])
}
