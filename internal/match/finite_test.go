package match

import (
	"math"
	"testing"
)

// TestNonFiniteCostsRejected pins the hardening contract: a NaN, ±Inf or
// negative entry anywhere in the cost matrix makes Optimal and
// OptimalCapacitated return an explicit error instead of a silent bad
// assignment.
func TestNonFiniteCostsRejected(t *testing.T) {
	bads := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1}
	for _, bad := range bads {
		cost := [][]float64{
			{1, 2, 3},
			{4, bad, 6},
		}
		dist := func(i, j int) float64 { return cost[i][j] }
		if _, _, err := Optimal(2, 3, dist); err == nil {
			t.Errorf("Optimal accepted cost %v", bad)
		}
		if _, _, err := OptimalCapacitated(2, []int{1, 1, 1}, dist); err == nil {
			t.Errorf("OptimalCapacitated accepted cost %v", bad)
		}
	}
}

// TestOptimalTransposedNonFinite covers the tasks > workers transpose path.
func TestOptimalTransposedNonFinite(t *testing.T) {
	dist := func(i, j int) float64 {
		if i == 2 && j == 0 {
			return math.Inf(1)
		}
		return float64(i + j)
	}
	if _, _, err := Optimal(3, 2, dist); err == nil {
		t.Error("Optimal (transposed) accepted an infinite cost")
	}
}

// TestFiniteCostsStillSolve guards against over-eager rejection: ordinary
// finite matrices keep solving exactly as before, zero costs included.
func TestFiniteCostsStillSolve(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
	}
	assign, total, err := Optimal(2, 3, matrixDist(cost))
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 { // rows take columns 1 and 0 (1 + 2)
		t.Errorf("Optimal total = %v, want 3", total)
	}
	if assign[0] == assign[1] {
		t.Errorf("Optimal reused a column: %v", assign)
	}
	if _, ctotal, err := OptimalCapacitated(2, []int{1, 1, 1}, matrixDist(cost)); err != nil || ctotal != total {
		t.Errorf("OptimalCapacitated = (%v, %v), want total %v", ctotal, err, total)
	}
}
