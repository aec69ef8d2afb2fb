package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/pombm/pombm/internal/core"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/match"
	"github.com/pombm/pombm/internal/privacy"
	"github.com/pombm/pombm/internal/workload"
)

// paperExamplePoints are the Example 1 coordinates.
func paperExamplePoints() []geo.Point {
	return []geo.Point{geo.Pt(1, 1), geo.Pt(2, 3), geo.Pt(5, 3), geo.Pt(4, 4)}
}

func init() {
	register("abl-walk", "Ablation: sampler cost — Alg. 2 enumeration vs direct vs Alg. 3 random walk", runAblWalk)
	register("abl-index", "Ablation: matcher data structures — scans vs indexes (HST trie, Euclidean buckets)", runAblIndex)
	register("abl-grid", "Ablation: predefined-grid resolution vs TBF distance", runAblGrid)
	register("abl-cr", "Ablation: empirical competitive ratio vs offline optimum", runAblCR)
	register("abl-em", "Ablation: HST mechanism vs grid exponential mechanism", runAblEM)
	register("abl-chain", "Ablation: HST-Greedy (Alg. 4) vs Bansal-style chain matching", runAblChain)
}

// runAblChain swaps the greedy matcher of TBF for the chain rule of Bansal
// et al. [19] (route through matched workers until an unmatched one is
// found) and compares total true distance across privacy budgets.
func runAblChain(r *Runner) (*Figure, error) {
	env, err := r.environment()
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "abl-chain", Title: "Tree matchers on TBF-obfuscated leaves",
		XLabel: "ε", YLabel: "total distance",
	}
	greedy := Series{Label: "HST-Greedy (Alg. 4)"}
	chain := Series{Label: "HST-Chain (Bansal et al.)"}
	spec := instanceSpec{
		numTasks: r.cfg.scaled(workload.DefaultNumTasks), numWorkers: r.cfg.scaled(workload.DefaultNumWorkers),
		mu: workload.DefaultMu, sigma: workload.DefaultSigma,
	}
	for _, eps := range workload.Epsilons {
		fig.X = append(fig.X, fmt.Sprint(eps))
		agg, err := r.distancePoint(core.AlgTBF, sweepPoint{spec, eps})
		if err != nil {
			return nil, err
		}
		greedy.Values = append(greedy.Values, agg.value)

		mech, err := privacy.NewHSTMechanism(env.Tree, eps)
		if err != nil {
			return nil, err
		}
		var total float64
		for rep := 0; rep < r.cfg.Reps; rep++ {
			inst, err := r.instance(spec, rep)
			if err != nil {
				return nil, err
			}
			src := r.root.DeriveN(fmt.Sprintf("abl-chain-%g", eps), rep)
			codes := make([]hst.Code, len(inst.Workers))
			for i, w := range inst.Workers {
				codes[i] = mech.Obfuscate(env.SnapCode(w), src)
			}
			g, err := match.NewHSTChain(env.Tree, codes)
			if err != nil {
				return nil, err
			}
			for i, task := range inst.Tasks {
				code := mech.Obfuscate(env.SnapCode(task), src)
				if w := g.Assign(code); w != match.NoWorker {
					total += inst.Tasks[i].Dist(inst.Workers[w])
				}
			}
		}
		chain.Values = append(chain.Values, total/float64(r.cfg.Reps))
	}
	fig.Series = []Series{greedy, chain}
	return fig, nil
}

// runAblWalk times the three samplers on the small Example 1 tree (where
// literal enumeration is feasible) and on the experiment grid tree (where
// it is not — reported as NaN).
func runAblWalk(r *Runner) (*Figure, error) {
	small, err := paperExampleTree()
	if err != nil {
		return nil, err
	}
	env, err := r.environment()
	if err != nil {
		return nil, err
	}
	big := env.Tree

	fig := &Figure{
		ID:     "abl-walk",
		Title:  "Sampler cost (ns/op)",
		XLabel: "tree",
		YLabel: "ns per obfuscation",
		X:      []string{fmt.Sprintf("example (N=%d, D=%d)", small.NumPoints(), small.Depth()), fmt.Sprintf("grid (N=%d, D=%d)", big.NumPoints(), big.Depth())},
	}
	eps := workload.DefaultEpsilon
	const samples = 20000
	timeIt := func(tree *hst.Tree, mode string) (float64, error) {
		mech, err := privacy.NewHSTMechanism(tree, eps)
		if err != nil {
			return 0, err
		}
		if mode == "enumerate" && tree.TotalLeaves() > privacy.EnumerateLimit {
			return math.NaN(), nil
		}
		src := r.root.Derive("abl-walk-" + mode + fmt.Sprint(tree.Depth()))
		x := tree.CodeOf(0)
		start := time.Now()
		for i := 0; i < samples; i++ {
			switch mode {
			case "enumerate":
				if _, err := mech.ObfuscateEnumerate(x, src); err != nil {
					return 0, err
				}
			case "direct":
				mech.ObfuscateDirect(x, src)
			default:
				mech.ObfuscateWalk(x, src)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / samples, nil
	}
	for _, mode := range []string{"enumerate", "direct", "walk"} {
		s := Series{Label: mode}
		for _, tree := range []*hst.Tree{small, big} {
			v, err := timeIt(tree, mode)
			if err != nil {
				return nil, err
			}
			s.Values = append(s.Values, v)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// runAblIndex compares total assignment time of the scan vs indexed
// implementations of both matchers — HST-Greedy (trie) and Euclidean
// greedy (bucketed dynamic NN) — across worker-set sizes. Each pair is
// assignment-for-assignment identical; only the data structure changes.
func runAblIndex(r *Runner) (*Figure, error) {
	env, err := r.environment()
	if err != nil {
		return nil, err
	}
	sizes := []int{2000, 4000, 8000, 16000}
	fig := &Figure{
		ID: "abl-index", Title: "Matcher data structures (identical assignments per pair)",
		XLabel: "|W|", YLabel: "assignment time (secs)",
	}
	scan := Series{Label: "HST scan O(D·n)"}
	trie := Series{Label: "HST trie O(D)"}
	escan := Series{Label: "Euclid scan O(n)"}
	eidx := Series{Label: "Euclid bucket index"}
	for _, nw := range sizes {
		n := r.cfg.scaled(nw)
		fig.X = append(fig.X, fmt.Sprint(n))
		spec := instanceSpec{
			numTasks: r.cfg.scaled(workload.DefaultNumTasks), numWorkers: n,
			mu: workload.DefaultMu, sigma: workload.DefaultSigma,
		}
		inst, err := r.instance(spec, 0)
		if err != nil {
			return nil, err
		}
		for _, useTrie := range []bool{false, true} {
			opt := core.Options{Epsilon: workload.DefaultEpsilon, UseTrie: useTrie}
			res, err := core.Run(core.AlgTBF, env, inst, opt, r.root.DeriveN("abl-index", n))
			if err != nil {
				return nil, err
			}
			if useTrie {
				trie.Values = append(trie.Values, res.AssignTime.Seconds())
			} else {
				scan.Values = append(scan.Values, res.AssignTime.Seconds())
			}
		}
		// Euclidean pair on identical Laplace-obfuscated reports.
		lap, err := privacy.NewPlanarLaplace(workload.DefaultEpsilon)
		if err != nil {
			return nil, err
		}
		src := r.root.DeriveN("abl-index-euclid", n)
		reportedW := make([]geo.Point, len(inst.Workers))
		for i, w := range inst.Workers {
			reportedW[i] = lap.ObfuscatePoint(w, src)
		}
		reportedT := make([]geo.Point, len(inst.Tasks))
		for i, t := range inst.Tasks {
			reportedT[i] = lap.ObfuscatePoint(t, src)
		}
		g := match.NewEuclideanGreedy(reportedW)
		start := time.Now()
		for _, t := range reportedT {
			g.Assign(t)
		}
		escan.Values = append(escan.Values, time.Since(start).Seconds())
		gi, err := match.NewEuclideanGreedyIndexed(workload.SyntheticRegion, reportedW)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		for _, t := range reportedT {
			gi.Assign(t)
		}
		eidx.Values = append(eidx.Values, time.Since(start).Seconds())
	}
	fig.Series = []Series{scan, trie, escan, eidx}
	return fig, nil
}

// runAblGrid sweeps the predefined-grid resolution: finer grids reduce
// snapping error but deepen the tree (longer codes, more noise levels).
func runAblGrid(r *Runner) (*Figure, error) {
	cols := []int{8, 16, 32, 64}
	fig := &Figure{
		ID: "abl-grid", Title: "Grid resolution",
		XLabel: "grid", YLabel: "value",
	}
	dist := Series{Label: "TBF total distance"}
	depth := Series{Label: "tree depth D"}
	build := Series{Label: "env build time (secs)"}
	spec := instanceSpec{
		numTasks: r.cfg.scaled(workload.DefaultNumTasks), numWorkers: r.cfg.scaled(workload.DefaultNumWorkers),
		mu: workload.DefaultMu, sigma: workload.DefaultSigma,
	}
	inst, err := r.instance(spec, 0)
	if err != nil {
		return nil, err
	}
	for _, c := range cols {
		fig.X = append(fig.X, fmt.Sprintf("%dx%d", c, c))
		start := time.Now()
		env, err := core.NewEnv(workload.SyntheticRegion, c, c, r.root.DeriveN("abl-grid", c))
		if err != nil {
			return nil, err
		}
		build.Values = append(build.Values, time.Since(start).Seconds())
		res, err := core.Run(core.AlgTBF, env, inst, core.Options{Epsilon: workload.DefaultEpsilon}, r.root.DeriveN("abl-grid-run", c))
		if err != nil {
			return nil, err
		}
		dist.Values = append(dist.Values, res.TotalDistance)
		depth.Values = append(depth.Values, float64(env.Tree.Depth()))
	}
	fig.Series = []Series{dist, depth, build}
	return fig, nil
}

// runAblCR measures empirical competitive ratios against the offline
// optimal matching on true locations (match.Optimal), for TBF and for a
// non-private Euclidean greedy (the privacy-free reference).
func runAblCR(r *Runner) (*Figure, error) {
	env, err := r.environment()
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "abl-cr", Title: "Empirical competitive ratio (vs offline optimum on true locations)",
		XLabel: "k = |T|", YLabel: "E[d(M)] / d(MOPT)",
	}
	tbf := Series{Label: "TBF (ε=0.6)"}
	plain := Series{Label: "greedy, no privacy"}
	for _, k := range []int{50, 100, 200, 400} {
		fig.X = append(fig.X, fmt.Sprint(k))
		var rTBF, rPlain float64
		for rep := 0; rep < r.cfg.Reps; rep++ {
			spec := instanceSpec{
				numTasks: k, numWorkers: k * 3 / 2,
				mu: workload.DefaultMu, sigma: workload.DefaultSigma,
			}
			inst, err := r.instance(spec, rep)
			if err != nil {
				return nil, err
			}
			_, opt, err := match.Optimal(len(inst.Tasks), len(inst.Workers), func(t, w int) float64 {
				return inst.Tasks[t].Dist(inst.Workers[w])
			})
			if err != nil {
				return nil, err
			}
			if opt == 0 {
				continue
			}
			res, err := core.Run(core.AlgTBF, env, inst, core.Options{Epsilon: 0.6}, r.root.DeriveN("abl-cr-tbf", k*100+rep))
			if err != nil {
				return nil, err
			}
			rTBF += res.TotalDistance / opt
			// Privacy-free greedy: match on true locations directly.
			g := match.NewEuclideanGreedy(inst.Workers)
			var total float64
			for _, task := range inst.Tasks {
				if w := g.Assign(task); w != match.NoWorker {
					total += task.Dist(inst.Workers[w])
				}
			}
			rPlain += total / opt
		}
		tbf.Values = append(tbf.Values, rTBF/float64(r.cfg.Reps))
		plain.Values = append(plain.Values, rPlain/float64(r.cfg.Reps))
	}
	fig.Series = []Series{tbf, plain}
	return fig, nil
}

// runAblEM compares the HST mechanism against a grid exponential mechanism
// feeding the same HST-Greedy matcher, across privacy budgets.
func runAblEM(r *Runner) (*Figure, error) {
	env, err := r.environment()
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "abl-em", Title: "Obfuscation mechanisms before HST-Greedy",
		XLabel: "ε", YLabel: "total distance",
	}
	tbf := Series{Label: "HST mechanism (TBF)"}
	em := Series{Label: "grid exponential mechanism"}
	spec := instanceSpec{
		numTasks: r.cfg.scaled(workload.DefaultNumTasks), numWorkers: r.cfg.scaled(workload.DefaultNumWorkers),
		mu: workload.DefaultMu, sigma: workload.DefaultSigma,
	}
	for _, eps := range workload.Epsilons {
		fig.X = append(fig.X, fmt.Sprint(eps))
		agg, err := r.distancePoint(core.AlgTBF, sweepPoint{spec, eps})
		if err != nil {
			return nil, err
		}
		tbf.Values = append(tbf.Values, agg.value)

		mech, err := privacy.NewGridExponential(eps, env.Grid.Points())
		if err != nil {
			return nil, err
		}
		var total float64
		for rep := 0; rep < r.cfg.Reps; rep++ {
			inst, err := r.instance(spec, rep)
			if err != nil {
				return nil, err
			}
			src := r.root.DeriveN(fmt.Sprintf("abl-em-%g", eps), rep)
			codes := make([]hst.Code, len(inst.Workers))
			for i, w := range inst.Workers {
				codes[i] = env.Tree.CodeOf(mech.ObfuscateIndex(w, src))
			}
			g := match.NewHSTGreedyScan(env.Tree, codes)
			for i, task := range inst.Tasks {
				code := env.Tree.CodeOf(mech.ObfuscateIndex(task, src))
				if w := g.Assign(code); w != match.NoWorker {
					total += inst.Tasks[i].Dist(inst.Workers[w])
				}
			}
		}
		em.Values = append(em.Values, total/float64(r.cfg.Reps))
	}
	fig.Series = []Series{tbf, em}
	return fig, nil
}
