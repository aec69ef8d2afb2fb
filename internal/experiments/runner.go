package experiments

import (
	"fmt"

	"github.com/pombm/pombm/internal/core"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/stats"
	"github.com/pombm/pombm/internal/workload"
)

// Runner executes experiments under one Config, caching environments and
// per-point measurements so figure panels that share sweeps (e.g. fig6a,
// fig6e, fig6i) pay for their runs once.
type Runner struct {
	cfg  Config
	root *rng.Source

	env       *core.Env // shared: synthetic and Chengdu use the same region
	distCache map[string]distAgg
	sizeCache map[string]sizeAgg
}

// NewRunner returns a Runner for the config.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Runner{
		cfg:       cfg,
		root:      rng.New(cfg.Seed),
		distCache: map[string]distAgg{},
		sizeCache: map[string]sizeAgg{},
	}, nil
}

// Config returns the runner's configuration.
func (r *Runner) Config() Config { return r.cfg }

// Run executes the experiment with the given id.
func (r *Runner) Run(id string) (*Figure, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return e.run(r)
}

// environment lazily builds the shared grid+HST (both workload regions are
// the 200×200 square, so one Env serves all experiments).
func (r *Runner) environment() (*core.Env, error) {
	if r.env != nil {
		return r.env, nil
	}
	env, err := core.NewEnv(workload.SyntheticRegion, r.cfg.GridCols, r.cfg.GridCols, r.root.Derive("env"))
	if err != nil {
		return nil, err
	}
	r.env = env
	return env, nil
}

// instanceSpec describes how to draw the instance for one sweep point.
type instanceSpec struct {
	// synthetic parameters (used when real is false)
	numTasks, numWorkers int
	mu, sigma            float64
	// real selects the Chengdu generator; rep r uses day (r mod 30)+1.
	real bool
}

func (s instanceSpec) key() string {
	return fmt.Sprintf("t%d-w%d-mu%g-s%g-real%v", s.numTasks, s.numWorkers, s.mu, s.sigma, s.real)
}

// instance draws the rep-th instance for the spec, already shuffled into a
// random arrival order.
func (r *Runner) instance(spec instanceSpec, rep int) (*workload.Instance, error) {
	var in *workload.Instance
	var err error
	if spec.real {
		day := rep%workload.ChengduDays + 1
		in, err = workload.Chengdu(
			workload.ChengduParams{Day: day, NumWorkers: spec.numWorkers},
			r.root.DeriveN("real-workers", rep),
		)
	} else {
		in, err = workload.Synthetic(workload.SyntheticParams{
			NumTasks:   spec.numTasks,
			NumWorkers: spec.numWorkers,
			Mu:         spec.mu,
			Sigma:      spec.sigma,
		}, r.root.DeriveN("synthetic-"+spec.key(), rep))
	}
	if err != nil {
		return nil, err
	}
	if spec.real {
		// The day's task multiset is fixed; the arrival order is the
		// random-order model's randomness.
		in.ShuffleTasks(r.root.DeriveN("order-"+spec.key(), rep))
	}
	return in, nil
}

// distAgg aggregates the three Fig. 6/7 metrics over repetitions.
type distAgg struct {
	distance    float64 // mean total true distance
	distanceStd float64 // sample std dev of the total distance
	seconds     float64 // mean total assignment time
	megabytes   float64 // mean retained MB
}

// distance-objective metrics, one per figure row.
type metricKind int

const (
	metricDistance metricKind = iota
	metricTime
	metricMemory
	metricSize
)

func (m metricKind) label() string {
	switch m {
	case metricDistance:
		return "total distance"
	case metricTime:
		return "running time (secs)"
	case metricMemory:
		return "memory usage (MB)"
	case metricSize:
		return "matching size"
	}
	return "?"
}

func (a distAgg) metric(m metricKind) float64 {
	switch m {
	case metricDistance:
		return a.distance
	case metricTime:
		return a.seconds
	case metricMemory:
		return a.megabytes
	}
	return 0
}

// distancePoint measures one (algorithm, spec, ε) sweep point, cached.
func (r *Runner) distancePoint(alg core.Algorithm, spec instanceSpec, eps float64) (distAgg, error) {
	key := fmt.Sprintf("%s|%s|eps%g", alg, spec.key(), eps)
	if agg, ok := r.distCache[key]; ok {
		return agg, nil
	}
	env, err := r.environment()
	if err != nil {
		return distAgg{}, err
	}
	opt := core.Options{Epsilon: eps}
	var agg distAgg
	var dist stats.Accumulator
	for rep := 0; rep < r.cfg.Reps; rep++ {
		inst, err := r.instance(spec, rep)
		if err != nil {
			return distAgg{}, err
		}
		res, err := core.Run(alg, env, inst, opt, r.root.DeriveN("run-"+key, rep))
		if err != nil {
			return distAgg{}, err
		}
		dist.Add(res.TotalDistance)
		agg.seconds += res.AssignTime.Seconds()
		agg.megabytes += float64(res.MemoryBytes) / 1e6
	}
	n := float64(r.cfg.Reps)
	agg.distance = dist.Mean()
	agg.distanceStd = dist.Std()
	agg.seconds /= n
	agg.megabytes /= n
	r.distCache[key] = agg
	return agg, nil
}

// sizeAgg aggregates the Fig. 8 metrics.
type sizeAgg struct {
	size    float64
	sizeStd float64
	seconds float64
}

// sizePoint measures one case-study sweep point, cached.
func (r *Runner) sizePoint(alg core.Algorithm, spec instanceSpec, eps float64, reach [2]float64) (sizeAgg, error) {
	key := fmt.Sprintf("size|%s|%s|eps%g|reach%v", alg, spec.key(), eps, reach)
	if agg, ok := r.sizeCache[key]; ok {
		return agg, nil
	}
	env, err := r.environment()
	if err != nil {
		return sizeAgg{}, err
	}
	opt := core.Options{Epsilon: eps}
	var agg sizeAgg
	var size stats.Accumulator
	for rep := 0; rep < r.cfg.Reps; rep++ {
		inst, err := r.instance(spec, rep)
		if err != nil {
			return sizeAgg{}, err
		}
		reaches := workload.Reaches(len(inst.Workers), reach[0], reach[1],
			r.root.DeriveN("reach-"+key, rep))
		res, err := core.RunSize(alg, env, inst, reaches, opt, r.root.DeriveN("run-"+key, rep))
		if err != nil {
			return sizeAgg{}, err
		}
		size.Add(float64(res.MatchingSize))
		agg.seconds += res.AssignTime.Seconds()
	}
	agg.size = size.Mean()
	agg.sizeStd = size.Std()
	agg.seconds /= float64(r.cfg.Reps)
	r.sizeCache[key] = agg
	return agg, nil
}
