package workload

import (
	"math"
	"testing"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/rng"
)

func TestSyntheticValidation(t *testing.T) {
	src := rng.New(1)
	if _, err := Synthetic(SyntheticParams{NumTasks: -1}, src); err == nil {
		t.Error("negative tasks accepted")
	}
	if _, err := Synthetic(SyntheticParams{Sigma: -2}, src); err == nil {
		t.Error("negative sigma accepted")
	}
}

func TestSyntheticShapeAndBounds(t *testing.T) {
	src := rng.New(7)
	p := SyntheticParams{NumTasks: 500, NumWorkers: 800, Mu: 100, Sigma: 20}
	in, err := Synthetic(p, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Tasks) != 500 || len(in.Workers) != 800 {
		t.Fatalf("sizes %d/%d", len(in.Tasks), len(in.Workers))
	}
	for _, pt := range append(append([]geo.Point{}, in.Tasks...), in.Workers...) {
		if !in.Region.Contains(pt) {
			t.Fatalf("point %v outside region", pt)
		}
	}
	// Sample mean near µ (σ/√n tolerance with slack for clamping).
	var sx, sy float64
	for _, pt := range in.Workers {
		sx += pt.X
		sy += pt.Y
	}
	n := float64(len(in.Workers))
	if math.Abs(sx/n-100) > 3 || math.Abs(sy/n-100) > 3 {
		t.Errorf("worker mean (%v, %v), want ≈(100,100)", sx/n, sy/n)
	}
}

func TestSyntheticDeterministicPerSeed(t *testing.T) {
	p := SyntheticParams{NumTasks: 50, NumWorkers: 60, Mu: DefaultMu, Sigma: DefaultSigma}
	a, err := Synthetic(p, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthetic(p, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Tasks {
		if a.Tasks[i] != b.Tasks[i] {
			t.Fatal("same seed produced different tasks")
		}
	}
	c, err := Synthetic(p, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Tasks {
		if a.Tasks[i] == c.Tasks[i] {
			same++
		}
	}
	if same == len(a.Tasks) {
		t.Error("different seeds produced identical tasks")
	}
}

func TestCloneAndShuffle(t *testing.T) {
	src := rng.New(3)
	in, err := Synthetic(SyntheticParams{NumTasks: 100, NumWorkers: 10, Mu: 100, Sigma: 20}, src)
	if err != nil {
		t.Fatal(err)
	}
	cp := in.Clone()
	cp.ShuffleTasks(src.Derive("shuffle"))
	// Same multiset, different order (overwhelmingly likely).
	count := map[geo.Point]int{}
	for _, p := range in.Tasks {
		count[p]++
	}
	for _, p := range cp.Tasks {
		count[p]--
	}
	for _, c := range count {
		if c != 0 {
			t.Fatal("shuffle changed the task multiset")
		}
	}
	same := true
	for i := range in.Tasks {
		if in.Tasks[i] != cp.Tasks[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("shuffle left order unchanged")
	}
	if &in.Tasks[0] == &cp.Tasks[0] {
		t.Error("Clone shares backing array")
	}
}

func TestChengduValidation(t *testing.T) {
	src := rng.New(1)
	if _, err := Chengdu(ChengduParams{Day: 0, NumWorkers: 10}, src); err == nil {
		t.Error("day 0 accepted")
	}
	if _, err := Chengdu(ChengduParams{Day: 31, NumWorkers: 10}, src); err == nil {
		t.Error("day 31 accepted")
	}
	if _, err := Chengdu(ChengduParams{Day: 1, NumWorkers: -5}, src); err == nil {
		t.Error("negative workers accepted")
	}
}

func TestChengduDayStability(t *testing.T) {
	// Tasks for a given day are a fixed dataset: independent of the
	// caller's source and identical across calls.
	a, err := Chengdu(ChengduParams{Day: 7, NumWorkers: 100}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Chengdu(ChengduParams{Day: 7, NumWorkers: 100}, rng.New(999))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatalf("task counts differ: %d vs %d", len(a.Tasks), len(b.Tasks))
	}
	for i := range a.Tasks {
		if a.Tasks[i] != b.Tasks[i] {
			t.Fatal("day tasks depend on caller source")
		}
	}
	// Different days differ.
	c, err := Chengdu(ChengduParams{Day: 8, NumWorkers: 100}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tasks) == len(c.Tasks) {
		same := true
		for i := range a.Tasks {
			if a.Tasks[i] != c.Tasks[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("two days produced identical tasks")
		}
	}
}

func TestChengduTaskCountsInRange(t *testing.T) {
	src := rng.New(5)
	for day := 1; day <= ChengduDays; day++ {
		in, err := Chengdu(ChengduParams{Day: day, NumWorkers: 10}, src)
		if err != nil {
			t.Fatal(err)
		}
		n := len(in.Tasks)
		if n < ChengduTaskRange[0] || n > ChengduTaskRange[1] {
			t.Errorf("day %d: %d tasks outside %v", day, n, ChengduTaskRange)
		}
		for _, p := range in.Tasks {
			if !ChengduRegion.Contains(p) {
				t.Fatalf("day %d: task %v outside region", day, p)
			}
		}
	}
}

func TestChengduIsClustered(t *testing.T) {
	// The hotspot mixture must produce visibly non-uniform density:
	// compare quadrant counts against a uniform draw.
	in, err := Chengdu(ChengduParams{Day: 3, NumWorkers: 0}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	// Max 25-unit cell count must far exceed the uniform expectation.
	var cells [8][8]int
	hottest := 0
	for _, p := range in.Tasks {
		x, y := min(int(p.X/25), 7), min(int(p.Y/25), 7)
		cells[x][y]++
		hottest = max(hottest, cells[x][y])
	}
	uniform := float64(len(in.Tasks)) / 64
	if float64(hottest) < 2.5*uniform {
		t.Errorf("max cell %d vs uniform %v: not clustered", hottest, uniform)
	}
}

func TestReaches(t *testing.T) {
	src := rng.New(9)
	rs := Reaches(1000, 10, 20, src)
	if len(rs) != 1000 {
		t.Fatalf("len = %d", len(rs))
	}
	for _, r := range rs {
		if r < 10 || r >= 20 {
			t.Fatalf("reach %v outside [10,20)", r)
		}
	}
}

func TestParamTablesMatchPaper(t *testing.T) {
	if len(SyntheticTaskCounts) != 5 || SyntheticTaskCounts[0] != 1000 || SyntheticTaskCounts[4] != 5000 {
		t.Error("Table II task counts wrong")
	}
	if len(Epsilons) != 5 || Epsilons[0] != 0.2 || Epsilons[4] != 1.0 {
		t.Error("epsilon sweep wrong")
	}
	if len(ScalabilitySizes) != 5 || ScalabilitySizes[4] != 100000 {
		t.Error("scalability sweep wrong")
	}
	if len(RealWorkerCounts) != 5 || RealWorkerCounts[0] != 6000 {
		t.Error("Table III worker counts wrong")
	}
	if DefaultNumTasks != 3000 || DefaultNumWorkers != 5000 || DefaultMu != 100 || DefaultSigma != 20 {
		t.Error("defaults drifted from the middle of each sweep")
	}
}
