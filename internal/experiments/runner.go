package experiments

import (
	"fmt"
	"time"

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

	env   *core.Env // shared: synthetic and Chengdu use the same region
	cache map[string]pointAgg
}

// NewRunner returns a Runner for the config.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Runner{
		cfg:   cfg,
		root:  rng.New(cfg.Seed),
		cache: map[string]pointAgg{},
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

// pointAgg aggregates one sweep point over repetitions.
type pointAgg struct {
	value     float64 // mean headline value: total true distance, or matching size
	std       float64 // sample std dev of the headline value
	seconds   float64 // mean total assignment time
	megabytes float64 // mean retained MB
}

// metrics of the evaluation, one per figure row.
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

func (a pointAgg) metric(m metricKind) float64 {
	switch m {
	case metricTime:
		return a.seconds
	case metricMemory:
		return a.megabytes
	}
	return a.value
}

// point measures one sweep point, cached under key: Reps repetitions, each
// run on its own draw of the spec's instance. run returns a repetition's
// headline value, assignment time and retained bytes.
func (r *Runner) point(key string, spec instanceSpec,
	run func(env *core.Env, inst *workload.Instance, rep int) (float64, time.Duration, uint64, error)) (pointAgg, error) {
	if agg, ok := r.cache[key]; ok {
		return agg, nil
	}
	env, err := r.environment()
	if err != nil {
		return pointAgg{}, err
	}
	var agg pointAgg
	var value stats.Accumulator
	for rep := 0; rep < r.cfg.Reps; rep++ {
		inst, err := r.instance(spec, rep)
		if err != nil {
			return pointAgg{}, err
		}
		v, d, retained, err := run(env, inst, rep)
		if err != nil {
			return pointAgg{}, err
		}
		value.Add(v)
		agg.seconds += d.Seconds()
		agg.megabytes += float64(retained) / 1e6
	}
	n := float64(r.cfg.Reps)
	agg.value = value.Mean()
	agg.std = value.Std()
	agg.seconds /= n
	agg.megabytes /= n
	r.cache[key] = agg
	return agg, nil
}

// distancePoint measures one (algorithm, spec, ε) point of the Fig. 6/7
// distance objective.
func (r *Runner) distancePoint(alg core.Algorithm, p sweepPoint) (pointAgg, error) {
	key := fmt.Sprintf("%s|%s|eps%g", alg, p.spec.key(), p.eps)
	return r.point(key, p.spec, func(env *core.Env, inst *workload.Instance, rep int) (float64, time.Duration, uint64, error) {
		res, err := core.Run(alg, env, inst, core.Options{Epsilon: p.eps}, r.root.DeriveN("run-"+key, rep))
		if err != nil {
			return 0, 0, 0, err
		}
		return res.TotalDistance, res.AssignTime, res.MemoryBytes, nil
	})
}

// sizePoint measures one point of the Fig. 8 case study, each worker's
// reachable radius drawn from the reach range.
func (r *Runner) sizePoint(alg core.Algorithm, p sweepPoint, reach [2]float64) (pointAgg, error) {
	key := fmt.Sprintf("size|%s|%s|eps%g|reach%v", alg, p.spec.key(), p.eps, reach)
	return r.point(key, p.spec, func(env *core.Env, inst *workload.Instance, rep int) (float64, time.Duration, uint64, error) {
		reaches := workload.Reaches(len(inst.Workers), reach[0], reach[1], r.root.DeriveN("reach-"+key, rep))
		res, err := core.RunSize(alg, env, inst, reaches, core.Options{Epsilon: p.eps}, r.root.DeriveN("run-"+key, rep))
		if err != nil {
			return 0, 0, 0, err
		}
		return float64(res.MatchingSize), res.AssignTime, res.MemoryBytes, nil
	})
}
