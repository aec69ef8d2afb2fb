package pombm_test

import (
	"math"
	"testing"

	"github.com/pombm/pombm"
)

// TestFacadeEndToEnd drives the whole public API the way the README's
// quickstart does.
func TestFacadeEndToEnd(t *testing.T) {
	region := pombm.NewRect(pombm.Pt(0, 0), pombm.Pt(200, 200))
	env, err := pombm.NewEnv(region, 16, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := pombm.SyntheticInstance(pombm.SyntheticParams{
		NumTasks: 60, NumWorkers: 90, Mu: 100, Sigma: 20,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	pombm.ShuffleTasks(inst, 8)
	for _, alg := range []pombm.Algorithm{pombm.AlgTBF, pombm.AlgLapGR, pombm.AlgLapHG} {
		res, err := pombm.Run(alg, env, inst, pombm.Options{Epsilon: 0.6}, 42)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Matched != 60 || res.TotalDistance <= 0 {
			t.Errorf("%s: matched=%d distance=%v", alg, res.Matched, res.TotalDistance)
		}
	}
	reaches := pombm.UniformReaches(len(inst.Workers), 15, 25, 9)
	for _, alg := range []pombm.Algorithm{pombm.AlgTBF, pombm.AlgProb} {
		res, err := pombm.RunSize(alg, env, inst, reaches, pombm.Options{Epsilon: 0.6}, 43)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.MatchingSize <= 0 {
			t.Errorf("%s: matching size %d", alg, res.MatchingSize)
		}
	}
}

func TestFacadeHSTAndMechanism(t *testing.T) {
	pts := []pombm.Point{pombm.Pt(1, 1), pombm.Pt(2, 3), pombm.Pt(5, 3), pombm.Pt(4, 4)}
	tree, err := pombm.BuildHSTWithParams(pts, 0.5, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() != 4 || tree.Degree() != 2 {
		t.Fatalf("D=%d c=%d", tree.Depth(), tree.Degree())
	}
	mech, err := pombm.NewHSTMechanism(tree, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rep := pombm.VerifyHSTGeoI(mech, 1e-9)
	if !rep.Satisfied() {
		t.Errorf("Geo-I audit failed: %v", rep)
	}
	if d := pombm.LevelDist(3); d != 28 {
		t.Errorf("LevelDist(3) = %v", d)
	}
	lap, err := pombm.NewPlanarLaplace(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if lap.Epsilon() != 0.5 {
		t.Error("laplace epsilon lost")
	}
}

func TestFacadeMatching(t *testing.T) {
	cost := [][]float64{{4, 1, 3}, {2, 0, 5}, {3, 2, 2}}
	_, total, err := pombm.OptimalMatching(3, 3, func(t_, w int) float64 { return cost[t_][w] })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-5) > 1e-9 {
		t.Errorf("matrix optimum = %v", total)
	}
	_, opt, err := pombm.OptimalMatching(2, 3, func(t_, w int) float64 {
		return math.Abs(float64(t_*10) - float64(w*9))
	})
	if err != nil {
		t.Fatal(err)
	}
	if opt < 0 {
		t.Errorf("optimal = %v", opt)
	}
	if pombm.NoWorker != -1 {
		t.Error("NoWorker drifted")
	}
}

func TestFacadeChengdu(t *testing.T) {
	inst, err := pombm.ChengduInstance(1, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Tasks) < 4245 || len(inst.Tasks) > 5034 {
		t.Errorf("day-1 tasks = %d", len(inst.Tasks))
	}
	if len(inst.Workers) != 500 {
		t.Errorf("workers = %d", len(inst.Workers))
	}
	if _, err := pombm.ChengduInstance(99, 10, 1); err == nil {
		t.Error("invalid day accepted")
	}
}

func TestFacadeSpatialIndexes(t *testing.T) {
	g, err := pombm.NewGrid(pombm.NewRect(pombm.Pt(0, 0), pombm.Pt(10, 10)), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 {
		t.Errorf("grid len = %d", g.Len())
	}
}
