package sim

import (
	"encoding/json"
	"math"
	"sort"
)

// Report is the machine-readable outcome of one run. Every field is a pure
// function of (scenario, seed, driver) — marshalling it twice for
// the same inputs yields byte-identical JSON, which the CI smoke lane
// relies on. Wall-clock figures are deliberately excluded from the JSON
// (they vary run to run); RunStats carries them separately.
type Report struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	Driver   string `json:"driver"`
	// Policy is the resolved assignment-policy name, Capacity the
	// per-worker task capacity, and CapacitySkew the deterministic
	// capacity-mix modulus; omitted for the historical defaults (greedy,
	// capacity 1, no skew) so pre-policy reports are byte-unchanged.
	Policy       string `json:"policy,omitempty"`
	Capacity     int    `json:"capacity,omitempty"`
	CapacitySkew int    `json:"capacity_skew,omitempty"`

	GridCols int     `json:"grid_cols"`
	Epsilon  float64 `json:"epsilon"`
	Depth    int     `json:"tree_depth"`
	Degree   int     `json:"tree_degree"`

	SimDuration float64 `json:"sim_duration"`
	Events      int     `json:"events"`

	Tasks   TaskMetrics       `json:"tasks"`
	Match   MatchMetrics      `json:"match"`
	Workers WorkerMetrics     `json:"workers"`
	Epochs  *EpochMetrics     `json:"epochs,omitempty"`
	Check   *CrossCheckReport `json:"crosscheck,omitempty"`
}

// EpochMetrics summarises epoch rotation and budget accounting; present
// only for scenarios that rotate or enforce a lifetime budget, so the
// reports of non-rotating scenarios are unchanged.
type EpochMetrics struct {
	Rotations      int   `json:"rotations"`
	FinalEpoch     int64 `json:"final_epoch"`
	RotatedReports int   `json:"rotated_reports"` // successful rotation re-obfuscations
	ParkedWorkers  int   `json:"parked_workers"`  // lifetime budgets exhausted
	// BudgetSpent is the accountant's grand total — exactly Σ ε over every
	// accepted fresh report (registrations, releases, rotations).
	BudgetLimit float64 `json:"budget_limit"`
	BudgetSpent float64 `json:"budget_spent"`
}

// TaskMetrics summarises the task stream's fate.
type TaskMetrics struct {
	Arrived        int     `json:"arrived"`
	Assigned       int     `json:"assigned"`
	Expired        int     `json:"expired"`
	PendingAtEnd   int     `json:"pending_at_end"`
	AssignmentRate float64 `json:"assignment_rate"` // assigned / arrived (0 when none arrived)
	MeanWait       float64 `json:"mean_wait"`       // mean arrival→assignment delay over assigned tasks
}

// MatchMetrics summarises assignment quality. Tree distance is the
// server-observable proxy (LCA level); true distance is the Definition 5
// objective the evaluation scores, measured between true locations the
// server never sees.
type MatchMetrics struct {
	LevelCounts  []int     `json:"level_counts"` // histogram over LCA levels 0..D
	MeanLevel    float64   `json:"mean_level"`
	MeanTreeDist float64   `json:"mean_tree_dist"`
	TrueDist     Quantiles `json:"true_dist"`
}

// Quantiles is a deterministic five-number summary.
type Quantiles struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// WorkerMetrics summarises pool dynamics.
type WorkerMetrics struct {
	Arrived        int     `json:"arrived"`       // distinct workers that ever came online
	Returns        int     `json:"returns"`       // comebacks after a departure
	Departed       int     `json:"departed"`      // completed departures
	Registrations  int     `json:"registrations"` // engine registrations incl. post-task re-registrations
	OnlineAtEnd    int     `json:"online_at_end"`
	AvailableAtEnd int     `json:"available_at_end"`
	Utilisation    float64 `json:"utilisation"` // Σ busy time / Σ online time
}

// CrossCheckReport is present when the run verified every decision against
// the reference: the sequential brute-force rule, or a batch window's
// reference matching. PoolConsistent is false when the server's final
// available count disagrees with the reference pool — a leak in its
// accounting.
type CrossCheckReport struct {
	Checked        int      `json:"checked"`
	Violations     int      `json:"violations"`
	PoolConsistent bool     `json:"pool_consistent"`
	Samples        []string `json:"samples,omitempty"`
}

// RunStats carries the wall-clock figures of a run, kept out of Report so
// the JSON stays deterministic.
type RunStats struct {
	WallSeconds  float64
	EventsPerSec float64
}

// JSON is the canonical serialisation: indented, stable key order (struct
// order), trailing newline — suitable for byte-compare in CI.
func (r *Report) JSON() ([]byte, error) {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// quantiles computes the summary of xs, sorting a copy. Empty input yields
// zeros.
func quantiles(xs []float64) Quantiles {
	if len(xs) == 0 {
		return Quantiles{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	rank := func(q float64) float64 {
		// Nearest-rank on the sorted sample: deterministic and monotone.
		i := int(math.Ceil(q*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	return Quantiles{
		Mean: sum / float64(len(sorted)),
		P50:  rank(0.50),
		P90:  rank(0.90),
		P99:  rank(0.99),
		Max:  sorted[len(sorted)-1],
	}
}
