package match

import (
	"errors"
	"fmt"

	"github.com/pombm/pombm/internal/flow"
)

// Optimal computes the minimum total cost of a matching that saturates the
// smaller of the two sides, with dist(t, w) supplying pairwise costs. It
// returns the worker assigned to each task (NoWorker for tasks left
// unmatched when tasks outnumber workers) and the total cost. This is MOPT
// in the competitive-ratio experiments; pass true Euclidean distances for
// the paper's d(MOPT) or tree distances for tree-space optima. Costs must
// be finite and non-negative.
func Optimal(nTasks, nWorkers int, dist func(task, worker int) float64) ([]int, float64, error) {
	if nTasks <= nWorkers {
		return solve(nTasks, unitCaps(nWorkers), dist)
	}
	// More tasks than workers: augment from the smaller side, transposed.
	byWorker, total, err := solve(nWorkers, unitCaps(nTasks), func(w, t int) float64 { return dist(t, w) })
	if err != nil {
		return nil, 0, err
	}
	out := make([]int, nTasks)
	for i := range out {
		out[i] = NoWorker
	}
	for w, t := range byWorker {
		out[t] = w
	}
	return out, total, nil
}

// OptimalCapacitated computes the offline minimum-cost assignment of all
// tasks to workers subject to capacities, on the same solver as Optimal.
// It errors when total capacity cannot cover the tasks.
func OptimalCapacitated(nTasks int, capacity []int, dist func(task, worker int) float64) ([]int, float64, error) {
	total := 0
	for _, c := range capacity {
		if c < 0 {
			return nil, 0, errors.New("match: negative capacity")
		}
		total += c
	}
	if total < nTasks {
		return nil, 0, fmt.Errorf("match: capacity %d cannot cover %d tasks", total, nTasks)
	}
	if nTasks == 0 {
		return nil, 0, nil
	}
	return solve(nTasks, capacity, dist)
}

// solve solves the complete rows × columns assignment on one
// flow.Bipartite — column c absorbing up to caps[c] rows, cold potentials —
// and returns each row's column (NoWorker when unmatched) and the total
// cost of the maximum-cardinality matching of least cost.
func solve(rows int, caps []int, cost func(row, col int) float64) ([]int, float64, error) {
	b := flow.NewBipartite()
	b.Reset(rows, len(caps))
	for c, k := range caps {
		b.SetWorker(c, k, 0)
	}
	for r := 0; r < rows; r++ {
		for c := range caps {
			if err := b.AddArc(r, c, cost(r, c)); err != nil {
				return nil, 0, fmt.Errorf("match: %w", err)
			}
		}
	}
	b.Run()
	out := make([]int, rows)
	for r := range out {
		out[r] = b.MatchedWorker(r) // −1 is NoWorker
	}
	return out, b.MatchedCost(), nil
}

func unitCaps(n int) []int {
	caps := make([]int, n)
	for i := range caps {
		caps[i] = 1
	}
	return caps
}
