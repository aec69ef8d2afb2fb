package match

import (
	"math"
	"testing"

	"github.com/pombm/pombm/internal/rng"
)

func TestOptimalKnownInstances(t *testing.T) {
	tests := []struct {
		name string
		cost [][]float64
		want float64
	}{
		{"1x1", [][]float64{{7}}, 7},
		{"identity best", [][]float64{{1, 9}, {9, 1}}, 2},
		{"anti-diagonal best", [][]float64{{9, 1}, {1, 9}}, 2},
		{"classic 3x3", [][]float64{
			{4, 1, 3},
			{2, 0, 5},
			{3, 2, 2},
		}, 5}, // (0,1)+(1,0)+(2,2) = 1+2+2
		{"rectangular 2x4", [][]float64{
			{5, 4, 3, 8},
			{6, 7, 2, 9},
		}, 6}, // (0,1)+(1,2) = 4+2
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := len(tt.cost[0])
			assign, total, err := Optimal(len(tt.cost), m, matrixDist(tt.cost))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(total-tt.want) > 1e-9 {
				t.Errorf("total = %v, want %v", total, tt.want)
			}
			// Assignment must be a valid injective mapping consistent with
			// the reported total.
			n, check := checkAssign(t, tt.name, assign, tt.cost, unitCaps(m))
			if n != len(tt.cost) || math.Abs(check-total) > 1e-9 {
				t.Errorf("assignment %v matches %d rows for %v, reported %v", assign, n, check, total)
			}
		})
	}
}

// TestOptimalMatchesBruteForce enumerates all assignments on small random
// instances with real-valued costs, in both orientations and under random
// capacities.
func TestOptimalMatchesBruteForce(t *testing.T) {
	src := rng.New(99)
	for trial := 0; trial < 100; trial++ {
		n := 1 + src.Intn(5)
		m := n + src.Intn(3)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				cost[i][j] = src.Uniform(0, 100)
			}
		}
		agreeWithBrute(t, "trial", cost, m, randCaps(src, n, m))
	}
}

func TestOptimalHandlesBothOrientations(t *testing.T) {
	dist := func(t_, w int) float64 {
		// Tasks at 0, 10; workers at 1, 8, 12 on a line.
		tasks := []float64{0, 10}
		workers := []float64{1, 8, 12}
		return math.Abs(tasks[t_] - workers[w])
	}
	assign, total, err := Optimal(2, 3, dist)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-3) > 1e-9 { // 0→1 (1) + 10→8 (2)
		t.Errorf("total = %v, want 3", total)
	}
	if assign[0] != 0 || assign[1] != 1 {
		t.Errorf("assign = %v", assign)
	}
	// More tasks than workers: two of three tasks matched.
	distT := func(t_, w int) float64 {
		tasks := []float64{0, 10, 20}
		workers := []float64{1, 19}
		return math.Abs(tasks[t_] - workers[w])
	}
	assign, total, err = Optimal(3, 2, distT)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-2) > 1e-9 { // 0→1 (1) + 20→19 (1)
		t.Errorf("transposed total = %v, want 2", total)
	}
	if assign[0] != 0 || assign[1] != NoWorker || assign[2] != 1 {
		t.Errorf("transposed assign = %v", assign)
	}
	// Degenerate sides.
	if a, tot, err := Optimal(0, 5, nil); err != nil || len(a) != 0 || tot != 0 {
		t.Error("no-task case mishandled")
	}
	a, tot, err := Optimal(2, 0, nil)
	if err != nil || tot != 0 || a[0] != NoWorker || a[1] != NoWorker {
		t.Error("no-worker case mishandled")
	}
}
