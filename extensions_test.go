package pombm_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/pombm/pombm"
)

func TestFacadeRoadNetwork(t *testing.T) {
	region := pombm.NewRect(pombm.Pt(0, 0), pombm.Pt(100, 100))
	g, err := pombm.ManhattanNetwork(region, 6, 6, 0.5, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 36 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	nodes := make([]int, g.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	m, err := g.MetricAmong(nodes)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := pombm.BuildHSTOverMetric(m.Len(), m.Dist, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumPoints() != 36 {
		t.Errorf("tree points = %d", tree.NumPoints())
	}
	// Non-contraction in the road metric.
	for i := 0; i < 36; i += 5 {
		for j := i + 1; j < 36; j += 7 {
			if tree.Dist(tree.CodeOf(i), tree.CodeOf(j)) < m.Dist(i, j)*tree.Scale()-1e-9 {
				t.Fatalf("contraction at (%d,%d)", i, j)
			}
		}
	}
}

func TestFacadeCapacitatedMatching(t *testing.T) {
	pts := []pombm.Point{pombm.Pt(1, 1), pombm.Pt(2, 3), pombm.Pt(5, 3), pombm.Pt(4, 4)}
	tree, err := pombm.BuildHSTWithParams(pts, 0.5, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	g, err := pombm.NewHSTGreedyCapacitated(tree,
		[]pombm.Code{tree.CodeOf(0), tree.CodeOf(2)}, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	task := tree.CodeOf(0)
	if w := g.Assign(task); w != 0 {
		t.Errorf("first = %d", w)
	}
	if w := g.Assign(task); w != 0 {
		t.Errorf("second = %d", w)
	}
	if w := g.Assign(task); w != 1 {
		t.Errorf("third = %d", w)
	}

	assign, cost, err := pombm.OptimalCapacitated(2, []int{2},
		func(t_, w int) float64 { return float64(t_ + 1) })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-3) > 1e-9 || assign[0] != 0 || assign[1] != 0 {
		t.Errorf("capacitated optimum: %v cost %v", assign, cost)
	}
}

func TestFacadeIndexedEuclidean(t *testing.T) {
	region := pombm.NewRect(pombm.Pt(0, 0), pombm.Pt(50, 50))
	g, err := pombm.NewEuclideanGreedyIndexed(region,
		[]pombm.Point{pombm.Pt(10, 10), pombm.Pt(40, 40)})
	if err != nil {
		t.Fatal(err)
	}
	if w := g.Assign(pombm.Pt(12, 12)); w != 0 {
		t.Errorf("assigned %d", w)
	}
	if g.Remaining() != 1 {
		t.Errorf("remaining %d", g.Remaining())
	}
}

func TestFacadeChainMatcher(t *testing.T) {
	pts := []pombm.Point{pombm.Pt(1, 1), pombm.Pt(2, 3), pombm.Pt(5, 3), pombm.Pt(4, 4)}
	tree, err := pombm.BuildHSTWithParams(pts, 0.5, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	g, err := pombm.NewHSTChain(tree, []pombm.Code{tree.CodeOf(0), tree.CodeOf(2)})
	if err != nil {
		t.Fatal(err)
	}
	if w := g.Assign(tree.CodeOf(0)); w != 0 {
		t.Errorf("first = %d", w)
	}
	if w := g.Assign(tree.CodeOf(0)); w != 1 {
		t.Errorf("chained second = %d", w)
	}
}

func TestFacadeAccountant(t *testing.T) {
	acct, err := pombm.NewAccountant(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := acct.Spend("a", 0.7); err != nil {
		t.Fatal(err)
	}
	if err := acct.Spend("a", 0.7); !errors.Is(err, pombm.ErrBudgetExhausted) {
		t.Errorf("over-budget spend: %v does not match pombm.ErrBudgetExhausted", err)
	}
}

func TestFacadeInstanceCSV(t *testing.T) {
	inst, err := pombm.SyntheticInstance(pombm.SyntheticParams{
		NumTasks: 10, NumWorkers: 15, Mu: 100, Sigma: 20,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := pombm.WriteInstanceCSV(&sb, inst); err != nil {
		t.Fatal(err)
	}
	back, err := pombm.ReadInstanceCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Tasks) != 10 || len(back.Workers) != 15 {
		t.Errorf("round trip sizes %d/%d", len(back.Tasks), len(back.Workers))
	}
}
