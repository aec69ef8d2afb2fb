package experiments

import (
	"fmt"

	"github.com/pombm/pombm/internal/core"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/privacy"
	"github.com/pombm/pombm/internal/workload"
)

// distAlgs are the compared algorithms of Fig. 6/7, in the paper's order.
var distAlgs = []core.Algorithm{core.AlgLapGR, core.AlgLapHG, core.AlgTBF}

// sizeAlgs are the compared algorithms of Fig. 8.
var sizeAlgs = []core.Algorithm{core.AlgProb, core.AlgTBF}

// axis is one x axis of the evaluation: its label, and per value the x
// label it prints and the sweep point it sets.
type axis struct {
	xlabel string
	xs     []string
	points []sweepPoint
}

// sweepPoint is what one x value sets: the instance to draw and ε.
type sweepPoint struct {
	spec instanceSpec
	eps  float64
}

// sweep builds an axis: each value starts from the Table II defaults (or,
// on the real data, the Chengdu default |W|) at the default ε, and set
// moves the one instanceSpec field or ε the axis sweeps.
func sweep[T int | float64](c Config, xlabel string, chengdu bool, values []T, set func(*sweepPoint, T)) axis {
	a := axis{xlabel: xlabel}
	for _, v := range values {
		p := sweepPoint{spec: instanceSpec{
			numTasks: c.scaled(workload.DefaultNumTasks), numWorkers: c.scaled(workload.DefaultNumWorkers),
			mu: workload.DefaultMu, sigma: workload.DefaultSigma,
		}, eps: workload.DefaultEpsilon}
		if chengdu {
			p.spec = instanceSpec{numWorkers: c.scaled(workload.DefaultRealNumWorkers), real: true}
		}
		set(&p, v)
		a.xs = append(a.xs, fmt.Sprint(v))
		a.points = append(a.points, p)
	}
	return a
}

// The four Table II sweeps plus the ε, scalability and real-data sweeps.
var (
	sweepTasks = func(c Config) axis {
		return sweep(c, "|T|", false, workload.SyntheticTaskCounts, func(p *sweepPoint, n int) { p.spec.numTasks = c.scaled(n) })
	}
	sweepWorkers = func(c Config) axis {
		return sweep(c, "|W|", false, workload.SyntheticWorkerCounts, func(p *sweepPoint, n int) { p.spec.numWorkers = c.scaled(n) })
	}
	sweepMu = func(c Config) axis {
		return sweep(c, "µ", false, workload.SyntheticMus, func(p *sweepPoint, mu float64) { p.spec.mu = mu })
	}
	sweepSigma = func(c Config) axis {
		return sweep(c, "σ", false, workload.SyntheticSigmas, func(p *sweepPoint, sigma float64) { p.spec.sigma = sigma })
	}
	sweepEps = func(c Config) axis {
		return sweep(c, "ε", false, workload.Epsilons, func(p *sweepPoint, eps float64) { p.eps = eps })
	}
	sweepScalability = func(c Config) axis {
		return sweep(c, "|T|=|W|", false, workload.ScalabilitySizes, func(p *sweepPoint, n int) {
			p.spec.numTasks, p.spec.numWorkers = c.scaled(n), c.scaled(n)
		})
	}
	sweepRealWorkers = func(c Config) axis {
		return sweep(c, "|W|", true, workload.RealWorkerCounts, func(p *sweepPoint, n int) { p.spec.numWorkers = c.scaled(n) })
	}
	sweepRealEps = func(c Config) axis {
		return sweep(c, "ε", true, workload.Epsilons, func(p *sweepPoint, eps float64) { p.eps = eps })
	}
)

// panel is one Fig. 6–8 panel: a metric over one axis.
type panel struct {
	id, title string
	metric    metricKind
	axis      func(Config) axis
}

// run materialises the panel: per algorithm, the metric of each sweep
// point's measurement, with the sample std dev beside the headline metrics
// (distance and matching size).
func (p panel) run(r *Runner, algs []core.Algorithm, measure func(core.Algorithm, sweepPoint) (pointAgg, error)) (*Figure, error) {
	ax := p.axis(r.cfg)
	fig := &Figure{ID: p.id, Title: p.title, XLabel: ax.xlabel, YLabel: p.metric.label(), X: ax.xs}
	for _, alg := range algs {
		series := Series{Label: string(alg)}
		for _, pt := range ax.points {
			agg, err := measure(alg, pt)
			if err != nil {
				return nil, err
			}
			series.Values = append(series.Values, agg.metric(p.metric))
			if p.metric == metricDistance || p.metric == metricSize {
				series.Spread = append(series.Spread, agg.std)
			}
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

func init() {
	panels := []panel{
		// Fig. 6: Table II sweeps × {distance, time, memory}.
		{"fig6a", "Total Distance of Varying |T| (synthetic)", metricDistance, sweepTasks},
		{"fig6b", "Total Distance of Varying |W| (synthetic)", metricDistance, sweepWorkers},
		{"fig6c", "Total Distance of Varying µ (synthetic)", metricDistance, sweepMu},
		{"fig6d", "Total Distance of Varying σ (synthetic)", metricDistance, sweepSigma},
		{"fig6e", "Running Time of Varying |T| (synthetic)", metricTime, sweepTasks},
		{"fig6f", "Running Time of Varying |W| (synthetic)", metricTime, sweepWorkers},
		{"fig6g", "Running Time of Varying µ (synthetic)", metricTime, sweepMu},
		{"fig6h", "Running Time of Varying σ (synthetic)", metricTime, sweepSigma},
		{"fig6i", "Memory of Varying |T| (synthetic)", metricMemory, sweepTasks},
		{"fig6j", "Memory of Varying |W| (synthetic)", metricMemory, sweepWorkers},
		{"fig6k", "Memory of Varying µ (synthetic)", metricMemory, sweepMu},
		{"fig6l", "Memory of Varying σ (synthetic)", metricMemory, sweepSigma},
		// Fig. 7: ε + scalability (synthetic), |W| + ε (real).
		{"fig7a", "Total Distance of Varying ε (synthetic)", metricDistance, sweepEps},
		{"fig7b", "Total Distance of Scalability (synthetic)", metricDistance, sweepScalability},
		{"fig7c", "Total Distance of Varying |W| (real)", metricDistance, sweepRealWorkers},
		{"fig7d", "Total Distance of Varying ε (real)", metricDistance, sweepRealEps},
		{"fig7e", "Running Time of Varying ε (synthetic)", metricTime, sweepEps},
		{"fig7f", "Running Time of Scalability (synthetic)", metricTime, sweepScalability},
		{"fig7g", "Running Time of Varying |W| (real)", metricTime, sweepRealWorkers},
		{"fig7h", "Running Time of Varying ε (real)", metricTime, sweepRealEps},
		{"fig7i", "Memory of Varying ε (synthetic)", metricMemory, sweepEps},
		{"fig7j", "Memory of Scalability (synthetic)", metricMemory, sweepScalability},
		{"fig7k", "Memory of Varying |W| (real)", metricMemory, sweepRealWorkers},
		{"fig7l", "Memory of Varying ε (real)", metricMemory, sweepRealEps},
	}
	for _, p := range panels {
		register(p.id, p.title, func(r *Runner) (*Figure, error) {
			return p.run(r, distAlgs, r.distancePoint)
		})
	}

	sizePanels := []struct {
		panel
		reach [2]float64
	}{
		{panel{"fig8a", "Matching Size of Varying |W| (synthetic)", metricSize, sweepWorkers}, workload.SyntheticReach},
		{panel{"fig8b", "Matching Size of Varying ε (synthetic)", metricSize, sweepEps}, workload.SyntheticReach},
		{panel{"fig8c", "Matching Size of Varying |W| (real)", metricSize, sweepRealWorkers}, workload.RealReach},
		{panel{"fig8d", "Matching Size of Varying ε (real)", metricSize, sweepRealEps}, workload.RealReach},
		{panel{"fig8e", "Running Time of Varying |W| (synthetic, size)", metricTime, sweepWorkers}, workload.SyntheticReach},
		{panel{"fig8f", "Running Time of Varying ε (synthetic, size)", metricTime, sweepEps}, workload.SyntheticReach},
		{panel{"fig8g", "Running Time of Varying |W| (real, size)", metricTime, sweepRealWorkers}, workload.RealReach},
		{panel{"fig8h", "Running Time of Varying ε (real, size)", metricTime, sweepRealEps}, workload.RealReach},
	}
	for _, p := range sizePanels {
		register(p.id, p.title, func(r *Runner) (*Figure, error) {
			return p.run(r, sizeAlgs, func(alg core.Algorithm, pt sweepPoint) (pointAgg, error) {
				return r.sizePoint(alg, pt, p.reach)
			})
		})
	}

	register("table1", "Probability of leaf nodes being the obfuscated nodes (ε=0.1, Example 1 tree)", runTable1)
}

// runTable1 reproduces Table I: per-level weights and per-leaf obfuscation
// probabilities on the Example 1 tree at ε = 0.1.
func runTable1(r *Runner) (*Figure, error) {
	tree, err := paperExampleTree()
	if err != nil {
		return nil, err
	}
	mech, err := privacy.NewHSTMechanism(tree, 0.1)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "table1",
		Title:  "Probability of leaf nodes being the obfuscated nodes (ε=0.1)",
		XLabel: "LCA level i",
		YLabel: "value",
	}
	var wt, prob, count Series
	wt.Label, prob.Label, count.Label = "wt_i", "per-leaf probability", "|L_i|"
	for i := 0; i <= tree.Depth(); i++ {
		fig.X = append(fig.X, fmt.Sprint(i))
		wt.Values = append(wt.Values, mech.Weight(i))
		prob.Values = append(prob.Values, mech.Weight(i)/mech.TotalWeight())
		count.Values = append(count.Values, tree.SiblingSetSize(i))
	}
	fig.Series = []Series{wt, prob, count}
	return fig, nil
}

// paperExampleTree rebuilds the worked example of Sec. III (Fig. 2/3).
func paperExampleTree() (*hst.Tree, error) {
	pts := paperExamplePoints()
	return hst.BuildWithParams(pts, 0.5, []int{0, 1, 2, 3})
}
