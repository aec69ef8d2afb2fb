package match

import (
	"math"
	"testing"

	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

func TestHSTGreedyCapacitatedBasics(t *testing.T) {
	src := rng.New(12)
	tr := buildTree(t, src, 40, 150)
	workers := []hst.Code{tr.CodeOf(0), tr.CodeOf(5)}
	g, err := NewHSTGreedyCapacitated(tr, workers, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Remaining() != 3 {
		t.Fatalf("Remaining = %d", g.Remaining())
	}
	// Tasks on worker 0's leaf: first two go to worker 0, third to 1.
	task := tr.CodeOf(0)
	if w := g.Assign(task); w != 0 {
		t.Errorf("first = %d", w)
	}
	if w := g.Assign(task); w != 0 {
		t.Errorf("second = %d (capacity 2 not honoured)", w)
	}
	if w := g.Assign(task); w != 1 {
		t.Errorf("third = %d, want 1 after exhaustion", w)
	}
	if w := g.Assign(task); w != NoWorker {
		t.Errorf("fourth = %d, want NoWorker", w)
	}
}

func TestHSTGreedyCapacitatedValidation(t *testing.T) {
	src := rng.New(13)
	tr := buildTree(t, src, 10, 50)
	ws := []hst.Code{tr.CodeOf(0)}
	if _, err := NewHSTGreedyCapacitated(tr, ws, []int{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewHSTGreedyCapacitated(tr, ws, []int{-1}); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := NewHSTGreedyCapacitated(tr, ws, []int{math.MaxInt32 + 1}); err == nil {
		t.Error("capacity past MaxInt32 accepted")
	}
	if g, err := NewHSTGreedyCapacitated(tr, ws, []int{math.MaxInt32}); err != nil || g.Remaining() != math.MaxInt32 {
		t.Errorf("capacity MaxInt32: %v", err)
	}
	// Zero-capacity workers are simply never used.
	g, err := NewHSTGreedyCapacitated(tr, ws, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if w := g.Assign(tr.CodeOf(0)); w != NoWorker {
		t.Errorf("zero-capacity worker assigned: %d", w)
	}
}

func TestCapacityOneEqualsTrie(t *testing.T) {
	// With unit capacities the capacitated matcher must behave exactly
	// like HSTGreedyTrie.
	src := rng.New(14)
	tr := buildTree(t, src, 50, 200)
	const nw = 60
	workers := make([]hst.Code, nw)
	ones := make([]int, nw)
	for i := range workers {
		workers[i] = tr.CodeOf(src.Intn(tr.NumPoints()))
		ones[i] = 1
	}
	capd, err := NewHSTGreedyCapacitated(tr, workers, ones)
	if err != nil {
		t.Fatal(err)
	}
	trie, err := NewHSTGreedyTrie(tr, workers)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < nw+5; k++ {
		task := tr.CodeOf(src.Intn(tr.NumPoints()))
		if a, b := capd.Assign(task), trie.Assign(task); a != b {
			t.Fatalf("task %d: capacitated %d ≠ trie %d", k, a, b)
		}
	}
}

func TestOptimalCapacitated(t *testing.T) {
	// Tasks at 0, 1, 10 on a line; workers at 0 (cap 2) and 10 (cap 1).
	tasks := []float64{0, 1, 10}
	workers := []float64{0, 10}
	dist := func(t_, w int) float64 { return math.Abs(tasks[t_] - workers[w]) }
	assign, cost, err := OptimalCapacitated(3, []int{2, 1}, dist)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-1) > 1e-9 { // 0→w0 (0) + 1→w0 (1) + 10→w1 (0)
		t.Errorf("cost = %v, want 1", cost)
	}
	if assign[0] != 0 || assign[1] != 0 || assign[2] != 1 {
		t.Errorf("assign = %v", assign)
	}
	// Capacity respected in the solution.
	counts := map[int]int{}
	for _, w := range assign {
		counts[w]++
	}
	if counts[0] > 2 || counts[1] > 1 {
		t.Errorf("capacities violated: %v", counts)
	}
}

func TestOptimalCapacitatedErrors(t *testing.T) {
	dist := func(a, b int) float64 { return 1 }
	if _, _, err := OptimalCapacitated(3, []int{1, 1}, dist); err == nil {
		t.Error("insufficient capacity accepted")
	}
	if _, _, err := OptimalCapacitated(1, []int{-1, 5}, dist); err == nil {
		t.Error("negative capacity accepted")
	}
	if a, cost, err := OptimalCapacitated(0, []int{1}, dist); err != nil || len(a) != 0 || cost != 0 {
		t.Error("zero tasks mishandled")
	}
}

// TestOptimalCapacitatedMatchesBruteForce holds OptimalCapacitated to the
// capacitated brute force under unit and random capacities, including more
// tasks than workers.
func TestOptimalCapacitatedMatchesBruteForce(t *testing.T) {
	src := rng.New(15)
	for trial := 0; trial < 40; trial++ {
		n := 1 + src.Intn(6)
		m := 1 + src.Intn(5)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				cost[i][j] = src.Uniform(0, 50)
			}
		}
		caps := randCaps(src, n, m)
		if trial%2 == 0 && m >= n {
			caps = unitCaps(m)
		}
		assign, got, err := OptimalCapacitated(n, caps, matrixDist(cost))
		if err != nil {
			t.Fatal(err)
		}
		wantN, want := bruteAssign(cost, caps)
		gotN, sum := checkAssign(t, "trial", assign, cost, caps)
		if gotN != n || wantN != n || math.Abs(got-want) > 1e-9 || math.Abs(sum-got) > 1e-9 {
			t.Fatalf("trial %d: capacitated %d tasks for %v (sums to %v), brute force %d for %v; caps %v",
				trial, gotN, got, sum, wantN, want, caps)
		}
	}
}
