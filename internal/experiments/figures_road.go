package experiments

import (
	"fmt"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/match"
	"github.com/pombm/pombm/internal/privacy"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/roadnet"
	"github.com/pombm/pombm/internal/workload"
)

func init() {
	register("abl-road", "Ablation: HST built on the road-network metric vs the Euclidean metric", runAblRoad)
}

// runAblRoad evaluates task assignment when travel follows streets. A
// Manhattan-style network is generated over the synthetic region; the
// predefined points are its intersections. Two HSTs are built — one on
// network shortest-path distances (possible because Alg. 1 only consumes a
// metric), one on straight-line distances — and TBF runs on each. Matchings
// are scored by true *road* distance, plus Lap-GR as a planar baseline
// scored the same way.
func runAblRoad(r *Runner) (*Figure, error) {
	src := r.root.Derive("abl-road")
	const gridCols = 24
	network, err := roadnet.Manhattan(workload.SyntheticRegion, gridCols, gridCols, 0.6, 0.12, src.Derive("net"))
	if err != nil {
		return nil, err
	}
	nodes := make([]int, network.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	metric, err := network.MetricAmong(nodes)
	if err != nil {
		return nil, err
	}
	roadTree, err := hst.BuildMetric(metric.Len(), metric.Dist, src.Derive("road-tree"))
	if err != nil {
		return nil, err
	}
	eucTree, err := hst.Build(network.Positions(), src.Derive("euc-tree"))
	if err != nil {
		return nil, err
	}
	// Manhattan puts node i at the grid's point i, so the nearest
	// intersection of a location is the cell it falls in.
	snap, err := geo.NewGrid(workload.SyntheticRegion, gridCols, gridCols)
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		ID: "abl-road", Title: "Task assignment on a road network",
		XLabel: "ε", YLabel: "total road distance",
	}
	road := Series{Label: "TBF, HST on road metric"}
	euc := Series{Label: "TBF, HST on Euclidean metric"}
	lap := Series{Label: "Lap-GR (road cost)"}

	spec := instanceSpec{
		numTasks: r.cfg.scaled(workload.DefaultNumTasks), numWorkers: r.cfg.scaled(workload.DefaultNumWorkers),
		mu: workload.DefaultMu, sigma: workload.DefaultSigma,
	}
	for _, eps := range workload.Epsilons {
		fig.X = append(fig.X, fmt.Sprint(eps))
		var sumRoad, sumEuc, sumLap float64
		for rep := 0; rep < r.cfg.Reps; rep++ {
			inst, err := r.instance(spec, rep)
			if err != nil {
				return nil, err
			}
			// True node of every agent: nearest intersection.
			taskNode := make([]int, len(inst.Tasks))
			for i, p := range inst.Tasks {
				taskNode[i] = snap.Snap(p)
			}
			workerNode := make([]int, len(inst.Workers))
			for i, p := range inst.Workers {
				workerNode[i] = snap.Snap(p)
			}
			repSrc := r.root.DeriveN(fmt.Sprintf("abl-road-%g", eps), rep)

			d, err := runRoadTBF(roadTree, metric, taskNode, workerNode, eps, repSrc.Derive("road"))
			if err != nil {
				return nil, err
			}
			sumRoad += d
			d, err = runRoadTBF(eucTree, metric, taskNode, workerNode, eps, repSrc.Derive("euc"))
			if err != nil {
				return nil, err
			}
			sumEuc += d
			sumLap += runRoadLapGR(metric, inst, taskNode, workerNode, eps, repSrc.Derive("lap"))
		}
		n := float64(r.cfg.Reps)
		road.Values = append(road.Values, sumRoad/n)
		euc.Values = append(euc.Values, sumEuc/n)
		lap.Values = append(lap.Values, sumLap/n)
	}
	fig.Series = []Series{road, euc, lap}
	return fig, nil
}

// runRoadTBF obfuscates the agents' intersections on the given tree and
// matches with HST-Greedy; the returned total is in road distance.
func runRoadTBF(tree *hst.Tree, metric *roadnet.Metric, taskNode, workerNode []int, eps float64, src *rng.Source) (float64, error) {
	mech, err := privacy.NewHSTMechanism(tree, eps)
	if err != nil {
		return 0, err
	}
	codes := make([]hst.Code, len(workerNode))
	for i, node := range workerNode {
		codes[i] = mech.Obfuscate(tree.CodeOf(node), src)
	}
	g := match.NewHSTGreedyScan(tree, codes)
	var total float64
	for _, node := range taskNode {
		code := mech.Obfuscate(tree.CodeOf(node), src)
		if w := g.Assign(code); w != match.NoWorker {
			total += metric.Dist(node, workerNode[w])
		}
	}
	return total, nil
}

// runRoadLapGR runs the planar Laplace + Euclidean greedy baseline but
// scores matched pairs by road distance between their true intersections.
func runRoadLapGR(metric *roadnet.Metric, inst *workload.Instance, taskNode, workerNode []int, eps float64, src *rng.Source) float64 {
	lap, err := privacy.NewPlanarLaplace(eps)
	if err != nil {
		return 0
	}
	reportedW := make([]geo.Point, len(inst.Workers))
	for i, w := range inst.Workers {
		reportedW[i] = lap.ObfuscatePoint(w, src)
	}
	g := match.NewEuclideanGreedy(reportedW)
	var total float64
	for i, t := range inst.Tasks {
		if w := g.Assign(lap.ObfuscatePoint(t, src)); w != match.NoWorker {
			total += metric.Dist(taskNode[i], workerNode[w])
		}
	}
	return total
}
