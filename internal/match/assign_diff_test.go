package match

import (
	"fmt"
	"math"
	"testing"

	"github.com/pombm/pombm/internal/rng"
)

// bruteAssign is the independent reference for Optimal and
// OptimalCapacitated: a branch-and-bound enumeration that gives each row
// one column with capacity left, or none, and keeps the best result by
// cardinality first, then total cost. Costs must be non-negative.
func bruteAssign(cost [][]float64, caps []int) (int, float64) {
	left := append([]int(nil), caps...)
	bestN, bestC := -1, 0.0
	var rec func(row, n int, c float64)
	rec = func(row, n int, c float64) {
		// The rows still to place can add at most one match each.
		if most := n + len(cost) - row; most < bestN || (most == bestN && c >= bestC) {
			return
		}
		if row == len(cost) {
			bestN, bestC = n, c
			return
		}
		for j := range left {
			if left[j] > 0 {
				left[j]--
				rec(row+1, n+1, c+cost[row][j])
				left[j]++
			}
		}
		rec(row+1, n, c)
	}
	rec(0, 0, 0)
	return bestN, bestC
}

// checkAssign validates a solver's assignment against the matrix and the
// capacities and returns how many rows it matched and what that costs.
func checkAssign(t *testing.T, name string, assign []int, cost [][]float64, caps []int) (int, float64) {
	t.Helper()
	if len(assign) != len(cost) {
		t.Fatalf("%s: %d entries for %d rows", name, len(assign), len(cost))
	}
	used := make([]int, len(caps))
	n, total := 0, 0.0
	for i, j := range assign {
		if j == NoWorker {
			continue
		}
		if j < 0 || j >= len(caps) {
			t.Fatalf("%s: row %d → column %d out of range: %v", name, i, j, assign)
		}
		if used[j]++; used[j] > caps[j] {
			t.Fatalf("%s: column %d over its capacity %d: %v", name, j, caps[j], assign)
		}
		n++
		total += cost[i][j]
	}
	return n, total
}

func matrixDist(cost [][]float64) func(int, int) float64 {
	return func(i, j int) float64 { return cost[i][j] }
}

func transpose(cost [][]float64, m int) [][]float64 {
	out := make([][]float64, m)
	for j := range out {
		out[j] = make([]float64, len(cost))
		for i := range cost {
			out[j][i] = cost[i][j]
		}
	}
	return out
}

// agreeWithBrute runs Optimal on an n × m matrix and on its transpose, and
// OptimalCapacitated under unit and under the given capacities, and holds
// each to the brute-force optimum: the same cardinality, the same total
// within 1e-9, and an assignment that costs what it claims.
func agreeWithBrute(t *testing.T, label string, cost [][]float64, m int, caps []int) {
	t.Helper()
	n := len(cost)
	type run struct {
		name string
		cost [][]float64
		caps []int
		call func() ([]int, float64, error)
	}
	tr := transpose(cost, m)
	runs := []run{
		{"Optimal", cost, unitCaps(m), func() ([]int, float64, error) { return Optimal(n, m, matrixDist(cost)) }},
		{"Optimal transposed", tr, unitCaps(n), func() ([]int, float64, error) { return Optimal(m, n, matrixDist(tr)) }},
	}
	if m >= n {
		runs = append(runs, run{"OptimalCapacitated unit", cost, unitCaps(m), func() ([]int, float64, error) {
			return OptimalCapacitated(n, unitCaps(m), matrixDist(cost))
		}})
	}
	runs = append(runs, run{"OptimalCapacitated", cost, caps, func() ([]int, float64, error) {
		return OptimalCapacitated(n, caps, matrixDist(cost))
	}})
	for _, r := range runs {
		assign, total, err := r.call()
		if err != nil {
			t.Fatalf("%s: %s: %v", label, r.name, err)
		}
		wantN, wantC := bruteAssign(r.cost, r.caps)
		gotN, gotC := checkAssign(t, label+": "+r.name, assign, r.cost, r.caps)
		if gotN != wantN || math.Abs(total-wantC) > 1e-9 || math.Abs(gotC-total) > 1e-9 {
			t.Fatalf("%s: %s matched %d for %v (assignment sums to %v), brute force %d for %v; caps %v, cost %v",
				label, r.name, gotN, total, gotC, wantN, wantC, r.caps, r.cost)
		}
	}
}

// randCaps draws capacities in 0..2 and tops them up until they cover n.
func randCaps(src *rng.Source, n, m int) []int {
	caps := make([]int, m)
	total := 0
	for j := range caps {
		caps[j] = src.Intn(3)
		total += caps[j]
	}
	for ; total < n; total++ {
		caps[src.Intn(m)]++
	}
	return caps
}

// TestAssignmentSolversAgree is the differential test: Optimal in both
// orientations and OptimalCapacitated under unit and random capacities
// must reach the brute-force optimum on random small instances. Seeded and
// table-driven so a failure reproduces exactly.
func TestAssignmentSolversAgree(t *testing.T) {
	cases := []struct {
		name string
		n, m int
		seed uint64
		reps int
	}{
		{"square-2", 2, 2, 101, 50},
		{"square-3", 3, 3, 202, 50},
		{"square-4", 4, 4, 303, 30},
		{"square-5", 5, 5, 404, 20},
		{"rect-2x4", 2, 4, 505, 50},
		{"rect-3x5", 3, 5, 606, 30},
		{"rect-4x6", 4, 6, 707, 20},
		{"rect-1x7", 1, 7, 808, 50},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			src := rng.New(tc.seed)
			for rep := 0; rep < tc.reps; rep++ {
				cost := make([][]float64, tc.n)
				for i := range cost {
					cost[i] = make([]float64, tc.m)
					for j := range cost[i] {
						// Mixed magnitudes, including exact ties (small
						// integer grid), to stress tie handling.
						cost[i][j] = float64(src.Intn(8)) + 0.25*float64(src.Intn(4))
					}
				}
				agreeWithBrute(t, fmt.Sprintf("rep %d", rep), cost, tc.m, randCaps(src, tc.n, tc.m))
			}
		})
	}
}
