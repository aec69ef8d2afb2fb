package core

import (
	"fmt"
	"sync"
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
	// Parallelism bounds the worker pool for the client-side obfuscation
	// fan-out in RunTBF and RunLapHG. 0 or 1 keeps the sequential draw
	// order the harness has always used (bit-for-bit reproducible against
	// earlier results); larger values obfuscate concurrently with
	// per-agent derived randomness, deterministic for a given seed
	// regardless of scheduling. Obfuscation is client-side work, so this
	// does not touch the server-side assignment timing the paper measures.
	Parallelism int
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
	workerCodes := obfuscateHST(env, mech, inst.Workers, src.Derive("workers"), opt.Parallelism)
	taskCodes := obfuscateHST(env, mech, inst.Tasks, src.Derive("tasks"), opt.Parallelism)

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
	workerCodes := obfuscateAll(inst.Workers, src.Derive("workers"), opt.Parallelism, obf)
	taskCodes := obfuscateAll(inst.Tasks, src.Derive("tasks"), opt.Parallelism, obf)

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
// With parallelism ≤ 1 the whole wave goes through the mechanism's batch
// sampler, drawing from src in item order — exactly the random stream the
// per-item loop drew, so results are bit-for-bit unchanged while the
// per-item buffer and string allocations are amortised away. With
// parallelism > 1 the wave is split into contiguous chunks, each item
// drawing from its own index-derived child source — deterministic for a
// given seed no matter how the goroutines are scheduled or how wide the
// pool is — with one reusable digit scratch per goroutine.
func obfuscateHST(env *Env, mech *privacy.HSTMechanism, pts []geo.Point, src *rng.Source, parallelism int) []hst.Code {
	codes := make([]hst.Code, len(pts))
	if parallelism <= 1 || len(pts) < 2 {
		snapped := make([]hst.Code, len(pts))
		for i, p := range pts {
			snapped[i] = env.SnapCode(p)
		}
		return mech.ObfuscateInto(codes, snapped, src)
	}
	if parallelism > len(pts) {
		parallelism = len(pts)
	}
	var wg sync.WaitGroup
	chunk := (len(pts) + parallelism - 1) / parallelism
	for g := 0; g < parallelism; g++ {
		lo, hi := g*chunk, (g+1)*chunk
		if hi > len(pts) {
			hi = len(pts)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			scratch := make([]byte, env.Tree.Depth())
			for i := lo; i < hi; i++ {
				codes[i] = mech.ObfuscateWalkInto(env.SnapCode(pts[i]), src.DeriveN("item", i), scratch)
			}
		}(lo, hi)
	}
	wg.Wait()
	return codes
}

// obfuscateAll maps every point through obf into a leaf code; the
// non-tree pipelines (planar Laplace + snap) use it. With parallelism ≤ 1
// items draw sequentially from src, preserving the exact random stream the
// harness has always produced. With parallelism > 1 a worker pool fans the
// items out, each item drawing from its own index-derived child source —
// deterministic for a given seed no matter how the goroutines are
// scheduled or how wide the pool is.
func obfuscateAll(pts []geo.Point, src *rng.Source, parallelism int, obf func(geo.Point, *rng.Source) hst.Code) []hst.Code {
	codes := make([]hst.Code, len(pts))
	if parallelism <= 1 || len(pts) < 2 {
		for i, p := range pts {
			codes[i] = obf(p, src)
		}
		return codes
	}
	if parallelism > len(pts) {
		parallelism = len(pts)
	}
	var wg sync.WaitGroup
	for g := 0; g < parallelism; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(pts); i += parallelism {
				codes[i] = obf(pts[i], src.DeriveN("item", i))
			}
		}(g)
	}
	wg.Wait()
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
