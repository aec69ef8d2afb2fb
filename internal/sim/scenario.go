package sim

import (
	"fmt"
	"sort"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/workload"
)

// Spatial selects the location model arrivals draw from.
type Spatial string

// The spatial models, backed by internal/workload samplers.
const (
	SpatialUniform Spatial = "uniform" // uniform over the region
	SpatialNormal  Spatial = "normal"  // Normal(µ, σ) per coordinate (Table II)
	SpatialChengdu Spatial = "chengdu" // fixed Chengdu hotspot mixture (Table III)
)

// Scenario describes one temporal workload: how workers and tasks arrive,
// linger, and leave. All times are in simulated seconds; all stochastic
// choices are drawn from sources derived from the run seed, so a scenario
// is a pure function of (Scenario, seed).
type Scenario struct {
	Name     string  `json:"name"`
	Duration float64 `json:"duration"` // simulated horizon

	// Infrastructure published by the server.
	GridCols int     `json:"grid_cols"` // predefined grid is GridCols × GridCols
	Epsilon  float64 `json:"epsilon"`

	// Worker population dynamics.
	InitialWorkers    int     `json:"initial_workers"`     // online at t = 0
	WorkerArrivalRate float64 `json:"worker_arrival_rate"` // fresh workers per second (Poisson)
	MeanOnline        float64 `json:"mean_online"`         // mean online stint before departing; 0 = never departs
	ReturnProb        float64 `json:"return_prob"`         // chance a departed worker re-registers later
	MeanAway          float64 `json:"mean_away"`           // mean offline gap before returning

	// Task stream.
	TaskRate    workload.RateProfile `json:"task_rate"`    // piecewise-constant arrival intensity
	MeanService float64              `json:"mean_service"` // mean service time once assigned
	Deadline    float64              `json:"deadline"`     // pending tasks expire after this; 0 = never
	BatchWindow float64              `json:"batch_window"` // > 0: assign in windows of this length; 0: immediately

	// Spatial model.
	Spatial Spatial `json:"spatial"`
	Mu      float64 `json:"mu,omitempty"`    // SpatialNormal center
	Sigma   float64 `json:"sigma,omitempty"` // SpatialNormal spread

	// Epoch dynamics. RotateEvery > 0 rotates the serving epoch on that
	// period: a fresh tree is published and every available worker
	// re-reports under it (spending budget when LifetimeEps is set;
	// exhausted workers are parked). RotateRefit orders each new tree's
	// carving permutation by the live workers' latest reports in the
	// outgoing epoch. LifetimeEps > 0 enforces a per-worker lifetime ε
	// budget on every fresh report, rotation or not.
	RotateEvery float64 `json:"rotate_every,omitempty"`
	RotateRefit bool    `json:"rotate_refit,omitempty"`
	LifetimeEps float64 `json:"lifetime_eps,omitempty"`

	// Assignment rule. Policy selects the engine's assignment policy by
	// spec ("" = "greedy"; see engine.PolicyByName); Capacity is the task
	// capacity every worker registers with (0 = 1). Capacities above 1
	// need a capacity-aware policy. CapacitySkew > 0 spreads capacities
	// deterministically across the population instead of registering every
	// worker at Capacity: worker w gets 1 + (w mod CapacitySkew), never
	// above Capacity — a fixed mix of light and heavy workers, the regime
	// where a window solver's capacity bounds actually bind.
	Policy       string `json:"policy,omitempty"`
	Capacity     int    `json:"capacity,omitempty"`
	CapacitySkew int    `json:"capacity_skew,omitempty"`
}

// Validate reports the first structural problem with the scenario.
func (sc *Scenario) Validate() error {
	switch {
	case sc.Duration <= 0:
		return fmt.Errorf("sim: duration %v must be positive", sc.Duration)
	case sc.GridCols < 1:
		return fmt.Errorf("sim: grid cols %d must be positive", sc.GridCols)
	case sc.Epsilon <= 0:
		return fmt.Errorf("sim: epsilon %v must be positive", sc.Epsilon)
	case sc.InitialWorkers < 0:
		return fmt.Errorf("sim: negative initial workers %d", sc.InitialWorkers)
	case sc.WorkerArrivalRate < 0:
		return fmt.Errorf("sim: negative worker arrival rate %v", sc.WorkerArrivalRate)
	case sc.MeanOnline < 0 || sc.MeanAway < 0 || sc.MeanService <= 0:
		return fmt.Errorf("sim: online/away/service times must be non-negative (service positive)")
	case sc.ReturnProb < 0 || sc.ReturnProb > 1:
		return fmt.Errorf("sim: return probability %v outside [0, 1]", sc.ReturnProb)
	case sc.ReturnProb > 0 && sc.MeanAway <= 0:
		return fmt.Errorf("sim: returning workers need a positive mean away time, got %v", sc.MeanAway)
	case sc.Deadline < 0 || sc.BatchWindow < 0:
		return fmt.Errorf("sim: deadline and batch window must be non-negative")
	case len(sc.TaskRate) == 0:
		return fmt.Errorf("sim: empty task rate profile")
	case sc.RotateEvery < 0 || sc.LifetimeEps < 0:
		return fmt.Errorf("sim: rotate interval and lifetime budget must be non-negative")
	case sc.LifetimeEps > 0 && sc.LifetimeEps < sc.Epsilon:
		return fmt.Errorf("sim: lifetime budget %v below per-report ε %v; every report would be refused",
			sc.LifetimeEps, sc.Epsilon)
	case sc.RotateRefit && sc.RotateEvery <= 0:
		return fmt.Errorf("sim: rotate refit needs a positive rotate interval")
	case sc.Capacity < 0:
		return fmt.Errorf("sim: negative worker capacity %d", sc.Capacity)
	case sc.CapacitySkew < 0:
		return fmt.Errorf("sim: negative capacity skew %d", sc.CapacitySkew)
	}
	pol, err := engine.PolicyByName(sc.Policy)
	if err != nil {
		return err
	}
	if sc.Capacity > 1 && !pol.CapacityAware() {
		return fmt.Errorf("sim: capacity %d needs a capacity-aware policy, have %s", sc.Capacity, pol.Name())
	}
	if sc.CapacitySkew > 0 && sc.Capacity <= 1 {
		return fmt.Errorf("sim: capacity skew %d needs a worker capacity above 1, got %d", sc.CapacitySkew, sc.Capacity)
	}
	switch sc.Spatial {
	case SpatialUniform, SpatialChengdu:
	case SpatialNormal:
		if sc.Sigma <= 0 {
			return fmt.Errorf("sim: normal spatial model needs positive sigma, got %v", sc.Sigma)
		}
	default:
		return fmt.Errorf("sim: unknown spatial model %q", sc.Spatial)
	}
	return nil
}

// WithDuration returns a copy of the scenario running for d simulated
// seconds: the task-rate profile is trimmed to d, or its last segment
// extended, so the task stream always spans the whole horizon.
func (sc Scenario) WithDuration(d float64) Scenario {
	if d <= 0 || d == sc.Duration {
		return sc
	}
	sc.Duration = d
	trimmed := sc.TaskRate[:0:0]
	for _, seg := range sc.TaskRate {
		if seg.Until >= d {
			seg.Until = d
			trimmed = append(trimmed, seg)
			break
		}
		trimmed = append(trimmed, seg)
	}
	if n := len(trimmed); n > 0 && trimmed[n-1].Until < d {
		trimmed[n-1].Until = d // extend the final rate to the new horizon
	}
	sc.TaskRate = trimmed
	return sc
}

// region returns the scenario's spatial region.
func (sc *Scenario) region() geo.Rect {
	if sc.Spatial == SpatialChengdu {
		return workload.ChengduRegion
	}
	return workload.SyntheticRegion
}

// samplers returns the worker and task location samplers. Chengdu workers
// cruise with a wider uniform background than task demand, matching the
// batch generator.
func (sc *Scenario) samplers() (workers, tasks workload.PointSampler) {
	switch sc.Spatial {
	case SpatialNormal:
		s := workload.NormalSampler(sc.Mu, sc.Sigma, sc.region())
		return s, s
	case SpatialChengdu:
		return workload.ChengduSampler(0.25), workload.ChengduSampler(0.12)
	default:
		s := workload.UniformSampler(sc.region())
		return s, s
	}
}

// presets are the named scenarios shipped with pombm-sim. Durations are
// sized so every preset finishes in well under a second of wall clock —
// they run in CI smoke tests and the nightly lane.
var presets = map[string]Scenario{
	// steady: a calm weekday — constant demand comfortably below capacity,
	// mild churn. The baseline every other preset perturbs.
	"steady": {
		Name:              "steady",
		Duration:          600,
		GridCols:          32,
		Epsilon:           0.6,
		InitialWorkers:    300,
		WorkerArrivalRate: 0.5,
		MeanOnline:        300,
		ReturnProb:        0.5,
		MeanAway:          120,
		TaskRate:          workload.Constant(3, 600),
		MeanService:       60,
		Deadline:          30,
		Spatial:           SpatialUniform,
	},
	// rush-hour: two demand peaks over a skewed city (everyone heads for
	// the same districts), capacity tight at the peaks.
	"rush-hour": {
		Name:              "rush-hour",
		Duration:          720,
		GridCols:          32,
		Epsilon:           0.6,
		InitialWorkers:    400,
		WorkerArrivalRate: 0.8,
		MeanOnline:        400,
		ReturnProb:        0.5,
		MeanAway:          90,
		TaskRate: workload.RateProfile{
			{Until: 180, Rate: 2},
			{Until: 330, Rate: 8},
			{Until: 510, Rate: 3},
			{Until: 660, Rate: 8},
			{Until: 720, Rate: 2},
		},
		MeanService: 45,
		Deadline:    20,
		Spatial:     SpatialNormal,
		Mu:          100,
		Sigma:       40,
	},
	// flash-crowd: a stadium empties — a >10× demand spike against a small
	// pool with tight deadlines; the backlog outruns capacity and tasks
	// expire.
	"flash-crowd": {
		Name:              "flash-crowd",
		Duration:          600,
		GridCols:          32,
		Epsilon:           0.6,
		InitialWorkers:    180,
		WorkerArrivalRate: 0.3,
		MeanOnline:        500,
		ReturnProb:        0.4,
		MeanAway:          150,
		TaskRate: workload.RateProfile{
			{Until: 240, Rate: 1.5},
			{Until: 300, Rate: 20},
			{Until: 600, Rate: 1.5},
		},
		MeanService: 30,
		Deadline:    15,
		Spatial:     SpatialUniform,
	},
	// churn-heavy: short online stints and frequent comebacks — the pool
	// turns over constantly, every comeback re-obfuscating afresh. The
	// stress preset for register/assign/withdraw/re-register interleaving.
	"churn-heavy": {
		Name:              "churn-heavy",
		Duration:          600,
		GridCols:          32,
		Epsilon:           0.6,
		InitialWorkers:    200,
		WorkerArrivalRate: 2,
		MeanOnline:        60,
		ReturnProb:        0.7,
		MeanAway:          45,
		TaskRate:          workload.Constant(4, 600),
		MeanService:       30,
		Deadline:          25,
		Spatial:           SpatialUniform,
	},
	// epoch-rotate: the long-horizon regime — the tree is republished every
	// 300 s (refit from the live workers' latest reports) and every available
	// worker re-noises under it, with a lifetime budget of 5 reports
	// (ε=0.6 each); long-lived workers exhaust their budget and are parked.
	"epoch-rotate": {
		Name:              "epoch-rotate",
		Duration:          900,
		GridCols:          32,
		Epsilon:           0.6,
		InitialWorkers:    250,
		WorkerArrivalRate: 0.5,
		MeanOnline:        400,
		ReturnProb:        0.5,
		MeanAway:          120,
		TaskRate:          workload.Constant(3, 900),
		MeanService:       45,
		Deadline:          30,
		Spatial:           SpatialUniform,
		RotateEvery:       300,
		RotateRefit:       true,
		LifetimeEps:       3.0,
	},
	// capacity-heavy: multi-task couriers — every worker registers with
	// capacity 3 under the capacitated sequential rule, demand high enough
	// that workers routinely juggle several tasks, and the tree rotates
	// mid-run so capacitated stints cross epochs with their remaining
	// units. The acceptance preset for the policy layer: zero cross-check
	// violations and bit-identical reports on both drivers.
	"capacity-heavy": {
		Name:              "capacity-heavy",
		Duration:          600,
		GridCols:          32,
		Epsilon:           0.6,
		InitialWorkers:    120,
		WorkerArrivalRate: 0.5,
		MeanOnline:        300,
		ReturnProb:        0.5,
		MeanAway:          90,
		TaskRate:          workload.Constant(5, 600),
		MeanService:       60,
		Deadline:          30,
		Spatial:           SpatialUniform,
		Policy:            "capacity-greedy",
		Capacity:          3,
		RotateEvery:       240,
		RotateRefit:       true,
	},
	// batch-heavy: the window solver under load — every assignment decision
	// is a 10 s batched window solved cost-optimally with k=16 candidate
	// pools over a capacity-skewed courier mix (capacities cycle 1..4), and
	// the tree rotates mid-run so warm-started windows cross an epoch swap.
	// The acceptance preset for the optimized batch path: zero window
	// cross-check violations and bit-identical reports on both drivers.
	"batch-heavy": {
		Name:              "batch-heavy",
		Duration:          600,
		GridCols:          32,
		Epsilon:           0.6,
		InitialWorkers:    500,
		WorkerArrivalRate: 0.5,
		MeanOnline:        300,
		ReturnProb:        0.5,
		MeanAway:          90,
		TaskRate:          workload.Constant(8, 600),
		MeanService:       60,
		Deadline:          40,
		BatchWindow:       10,
		Spatial:           SpatialUniform,
		Policy:            "batch-optimal:k=16",
		Capacity:          4,
		CapacitySkew:      4,
		RotateEvery:       240,
	},
	// chengdu-day: the Chengdu hotspot mixture under time-sliced batch
	// assignment (5 s windows), long ride-like service times.
	"chengdu-day": {
		Name:              "chengdu-day",
		Duration:          900,
		GridCols:          32,
		Epsilon:           0.6,
		InitialWorkers:    350,
		WorkerArrivalRate: 0.4,
		MeanOnline:        600,
		ReturnProb:        0.6,
		MeanAway:          180,
		TaskRate:          workload.Constant(1.8, 900),
		MeanService:       90,
		Deadline:          60,
		BatchWindow:       5,
		Spatial:           SpatialChengdu,
	},
}

// Scenarios lists the preset names in sorted order.
func Scenarios() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Preset returns the named scenario.
func Preset(name string) (Scenario, error) {
	sc, ok := presets[name]
	if !ok {
		return Scenario{}, fmt.Errorf("sim: unknown scenario %q (have %v)", name, Scenarios())
	}
	return sc, nil
}
