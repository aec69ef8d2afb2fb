// Package experiments reproduces every table and figure of the paper's
// evaluation (Sec. IV): the Fig. 6/7 distance-objective sweeps, the Fig. 8
// matching-size case study, Table I's mechanism distribution, and the
// ablations DESIGN.md adds. Each experiment is addressed by id ("fig6a",
// "fig8c", "table1", "abl-index", ...), runs a parameter sweep with
// repetitions in the random-order model, and yields a Figure: labelled
// series ready for text, CSV, or bench reporting.
package experiments

import (
	"fmt"
	"sort"
)

// Figure is the result of one experiment: one series per algorithm over a
// common x axis.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	X      []string
	Series []Series
}

// Series is one algorithm's y values, aligned with Figure.X. Spread, when
// non-nil, carries the sample standard deviation across repetitions for
// each point (attached to the distance and matching-size metrics, whose
// workloads are resampled per repetition).
type Series struct {
	Label  string
	Values []float64
	Spread []float64
}

// Config tunes a Runner.
type Config struct {
	// Seed roots every random choice (tree construction, mechanisms,
	// workloads, arrival orders); equal seeds reproduce results exactly.
	Seed uint64
	// Reps is the number of repetitions averaged per sweep point (the
	// paper uses 10). Real-data experiments map repetition r to day r+1.
	Reps int
	// Scale multiplies workload sizes (|T|, |W|). 1.0 is paper scale;
	// smaller values produce CI-friendly runs with the same shapes.
	Scale float64
	// GridCols is the resolution of the predefined point grid (N = cols²).
	// The default is 64 (N = 4096), which the abl-grid ablation motivates:
	// coarser grids floor TBF's total distance at the snapping error, finer
	// ones deepen the tree without improving the matching.
	GridCols int
}

func (c Config) validate() error {
	if c.Reps < 1 {
		return fmt.Errorf("experiments: Reps must be ≥ 1 (got %d)", c.Reps)
	}
	if c.Scale <= 0 {
		return fmt.Errorf("experiments: Scale must be positive (got %v)", c.Scale)
	}
	if c.GridCols < 2 {
		return fmt.Errorf("experiments: GridCols must be ≥ 2 (got %d)", c.GridCols)
	}
	return nil
}

// scaled applies the workload scale with a floor that keeps instances
// meaningful.
func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 20 {
		v = 20
	}
	return v
}

// experiment is one registered experiment.
type experiment struct {
	id    string
	title string
	run   func(r *Runner) (*Figure, error)
}

var registry = map[string]experiment{}

func register(id, title string, run func(r *Runner) (*Figure, error)) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = experiment{id: id, title: title, run: run}
}

// IDs returns all experiment ids in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns the registered title for an experiment id.
func Title(id string) (string, bool) {
	e, ok := registry[id]
	return e.title, ok
}
