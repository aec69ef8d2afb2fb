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

// SizeResult summarises one matching-size case-study run (Sec. IV-C).
type SizeResult struct {
	Algorithm Algorithm
	// Assigned counts tasks the server paired with some worker.
	Assigned int
	// MatchingSize counts pairs that are true edges of the incomplete
	// bipartite graph — the true distance is within the worker's reach —
	// i.e. assignments that succeed in the real world. This is the
	// headline "matching size" metric.
	MatchingSize int
	// AssignTime is the cumulative server-side assignment time.
	AssignTime time.Duration
	// MemoryBytes approximates the server-side retained heap.
	MemoryBytes uint64
}

// RunSize executes the named size-objective pipeline. reaches[i] is worker
// i's reachable radius (known to the server, as in the paper's setup).
func RunSize(alg Algorithm, env *Env, inst *workload.Instance, reaches []float64, opt Options, src *rng.Source) (*SizeResult, error) {
	switch alg {
	case AlgTBF:
		return runTBFSize(env, inst, reaches, opt, src)
	case AlgProb:
		return runProbSize(env, inst, reaches, opt, src)
	default:
		return nil, fmt.Errorf("core: unknown size-objective algorithm %q", alg)
	}
}

// runTBFSize is the paper's tree-based matcher under the size objective:
// obfuscate through the HST mechanism, then assign each task to the
// tree-nearest worker that looks reachable on the reported data.
func runTBFSize(env *Env, inst *workload.Instance, reaches []float64, opt Options, src *rng.Source) (*SizeResult, error) {
	if len(reaches) != len(inst.Workers) {
		return nil, fmt.Errorf("core: %d reaches for %d workers", len(reaches), len(inst.Workers))
	}
	mech, err := privacy.NewHSTMechanism(env.Tree, opt.Epsilon)
	if err != nil {
		return nil, err
	}
	wSrc := src.Derive("workers")
	workers := make([]match.SizeWorker, len(inst.Workers))
	for i, w := range inst.Workers {
		code := mech.Obfuscate(env.SnapCode(w), wSrc)
		workers[i] = match.SizeWorker{
			Reported: env.LeafPosition(code),
			Code:     code,
			Reach:    reaches[i],
		}
	}
	tSrc := src.Derive("tasks")
	taskCodes := make([]hst.Code, len(inst.Tasks))
	taskPts := make([]geo.Point, len(inst.Tasks))
	for i, t := range inst.Tasks {
		taskCodes[i] = mech.Obfuscate(env.SnapCode(t), tSrc)
		taskPts[i] = env.LeafPosition(taskCodes[i])
	}

	res := &SizeResult{Algorithm: AlgTBF}
	m := match.NewTBFSize(env.Tree, workers)
	for i := range inst.Tasks {
		start := time.Now()
		w := m.Assign(taskPts[i], taskCodes[i])
		res.AssignTime += time.Since(start)
		scoreSize(res, inst, reaches, i, w)
	}
	res.MemoryBytes = env.RetainedBytes() + sizeWorkersBytes(workers) + codesBytes(taskCodes) + pointsBytes(taskPts) + boolsBytes(len(workers))
	return res, nil
}

// runProbSize is the Prob baseline: planar Laplace on both sides, then
// posterior-probability assignment.
func runProbSize(env *Env, inst *workload.Instance, reaches []float64, opt Options, src *rng.Source) (*SizeResult, error) {
	if len(reaches) != len(inst.Workers) {
		return nil, fmt.Errorf("core: %d reaches for %d workers", len(reaches), len(inst.Workers))
	}
	lap, err := privacy.NewPlanarLaplace(opt.Epsilon)
	if err != nil {
		return nil, err
	}
	wSrc := src.Derive("workers")
	workers := make([]match.SizeWorker, len(inst.Workers))
	for i, w := range inst.Workers {
		workers[i] = match.SizeWorker{
			Reported: lap.ObfuscatePoint(w, wSrc),
			Reach:    reaches[i],
		}
	}
	tSrc := src.Derive("tasks")
	reportedT := make([]geo.Point, len(inst.Tasks))
	for i, t := range inst.Tasks {
		reportedT[i] = lap.ObfuscatePoint(t, tSrc)
	}

	res := &SizeResult{Algorithm: AlgProb}
	m := match.NewProbSize(workers, opt.Epsilon)
	for i := range inst.Tasks {
		start := time.Now()
		w := m.Assign(reportedT[i])
		res.AssignTime += time.Since(start)
		scoreSize(res, inst, reaches, i, w)
	}
	res.MemoryBytes = sizeWorkersBytes(workers) + pointsBytes(reportedT) + boolsBytes(len(workers)) + m.CacheBytes()
	return res, nil
}

func scoreSize(res *SizeResult, inst *workload.Instance, reaches []float64, i, w int) {
	if w == match.NoWorker {
		return
	}
	res.Assigned++
	if inst.Tasks[i].Dist(inst.Workers[w]) <= reaches[w] {
		res.MatchingSize++
	}
}
