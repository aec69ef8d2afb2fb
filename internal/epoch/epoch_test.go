package epoch

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

func buildTree(t *testing.T, seed uint64, cols int) *hst.Tree {
	t.Helper()
	grid, err := geo.NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(200, 200)), cols, cols)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hst.Build(grid.Points(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func randCode(tree *hst.Tree, src *rng.Source) hst.Code {
	b := make([]byte, tree.Depth())
	for j := range b {
		b[j] = byte(src.Intn(tree.Degree()))
	}
	return hst.Code(b)
}

func TestControllerValidation(t *testing.T) {
	if _, err := NewController(Config{Tree: nil}); err == nil {
		t.Error("nil tree accepted")
	}
	for _, bad := range []struct{ eps, lifetime float64 }{
		{0, 0}, {-1, 1}, {math.NaN(), 1}, // ε must be positive
		{1, -1}, {1, math.NaN()}, // the lifetime non-negative
		{1, 0.5}, // and at least one report
	} {
		if _, err := ReportLimit(bad.eps, bad.lifetime); err == nil {
			t.Errorf("ReportLimit(%v, %v) accepted", bad.eps, bad.lifetime)
		}
	}
}

func TestControllerLifecycle(t *testing.T) {
	tree := buildTree(t, 1, 8)
	c, err := NewController(Config{Tree: tree, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Epoch != FirstEpoch || c.Tree() != tree {
		t.Fatalf("fresh controller: epoch %d", st.Epoch)
	}

	// Commit requires a staged rotation.
	if err := c.Commit(&Staged{Epoch: 2, Tree: tree}, 0); !errors.Is(err, ErrNotStaged) {
		t.Fatalf("commit without prepare: %v", err)
	}

	staged, err := c.Prepare(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if staged.Epoch != 2 || staged.Tree == nil {
		t.Fatalf("staged = %+v", staged)
	}
	if c.StagedRotation() != staged {
		t.Fatal("StagedRotation does not return the staged rotation")
	}
	// The staged tree embeds the same predefined points.
	if staged.Tree.NumPoints() != tree.NumPoints() {
		t.Fatalf("staged tree has %d points, want %d", staged.Tree.NumPoints(), tree.NumPoints())
	}
	if err := c.Commit(staged, 2); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Epoch != 2 || c.Tree() != staged.Tree {
		t.Fatalf("post-commit epoch %d", st.Epoch)
	}
	if c.StagedRotation() != nil {
		t.Fatal("staged rotation survives commit")
	}

	staged, err = c.Prepare(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(staged, 1); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st != (Stats{Epoch: 3, Rotations: 2, Rotated: 3}) {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCommitRefusals pins Commit's two refusals — nothing staged, before
// any Prepare and again after a commit cleared the staging, and a staged
// epoch that differs — and that a refused commit leaves the controller
// serving what it served.
func TestCommitRefusals(t *testing.T) {
	tree := buildTree(t, 2, 8)
	c, err := NewController(Config{Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(&Staged{Epoch: 2, Tree: tree}, 1); !errors.Is(err, ErrNotStaged) {
		t.Fatalf("commit with nothing staged: %v", err)
	}
	staged, err := c.Prepare(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(&Staged{Epoch: staged.Epoch + 1, Tree: staged.Tree}, 1); err == nil || errors.Is(err, ErrNotStaged) {
		t.Fatalf("commit of a mismatched epoch: %v", err)
	}
	if st := c.Stats(); st.Epoch != FirstEpoch || st.Rotations != 0 || st.Rotated != 0 ||
		c.Tree() != tree || c.StagedRotation() != staged {
		t.Fatalf("a refused commit moved the controller: %+v", st)
	}
	if err := c.Commit(staged, 4); err != nil {
		t.Fatal(err)
	}
	if c.StagedRotation() != nil {
		t.Fatal("commit left the rotation staged")
	}
	if err := c.Commit(staged, 4); !errors.Is(err, ErrNotStaged) {
		t.Fatalf("second commit of one staging: %v", err)
	}
	if st := c.Stats(); st.Epoch != staged.Epoch || st.Rotations != 1 || st.Rotated != 4 || c.Tree() != staged.Tree {
		t.Fatalf("after one commit: %+v", st)
	}
}

// budgetAffords is the charge rule ReportLimit replaced, verbatim: a
// worker that had count reports of eps charged affords one more when its
// float spend plus eps fits the lifetime within 1e-12 (always, with no
// budget), and its count is below MaxReports.
func budgetAffords(count uint32, eps, lifetime float64) bool {
	spent := float64(count) * eps
	return count < MaxReports && (lifetime == 0 || spent+eps <= lifetime+1e-12)
}

// TestReportLimitAgreesWithBudgetRule holds the closed form to the float
// rule it replaced at every count up to and past its boundary, on a grid of
// (ε, lifetime) with exact multiples (0.1 of 1.0, and epoch-rotate's 0.6 of
// 3.0), ε = 1/3, lifetimes a hair either side of a multiple, seeded random
// pairs, and lifetimes that reach the MaxReports cap or are no budget at
// all — where only the counts around the cap are walked.
func TestReportLimitAgreesWithBudgetRule(t *testing.T) {
	type pair struct{ eps, lifetime float64 }
	grid := []pair{
		{0.1, 1.0}, {0.6, 3.0}, {0.6, 1.2}, {1.0 / 3, 1.0}, {1.0 / 3, 2.0}, {0.5, 0.5},
		{0.25, 1.0}, {0.7, 2.1}, {0.3, 0.9}, {0.01, 1.0}, {1e-3, 1.0}, {1.5, 100},
		{0.1, 1.0 - 1e-9}, {0.1, 1.0 + 1e-9}, {0.1, 1.0 - 1e-13}, {0.6, 3.0 - 1e-12},
		{0.6, 1e12}, {1e-6, 1e3}, {0.6, 0}, {1.0 / 3, 0}, {0.6, math.Inf(1)},
	}
	src := rng.New(11)
	for i := 0; i < 300; i++ {
		eps := 0.001 + src.Float64()
		k := float64(1 + src.Intn(2000))
		lifetime := k * eps
		switch i % 3 {
		case 1:
			lifetime *= 1 + (src.Float64()-0.5)*1e-9
		case 2:
			lifetime = max(eps, lifetime+src.Float64()*eps)
		}
		grid = append(grid, pair{eps, lifetime})
	}
	for _, p := range grid {
		limit, err := ReportLimit(p.eps, p.lifetime)
		if err != nil {
			t.Fatalf("ReportLimit(%v, %v): %v", p.eps, p.lifetime, err)
		}
		walk := func(from, to uint32) {
			for count := from; count <= to; count++ {
				if got, want := count < limit, budgetAffords(count, p.eps, p.lifetime); got != want {
					t.Fatalf("ε %v, lifetime %v, %d reports: closed form affords %v, the float rule %v (limit %d)",
						p.eps, p.lifetime, count, got, want, limit)
				}
			}
		}
		if limit < 1<<20 {
			walk(0, limit+1)
			continue
		}
		if limit != MaxReports {
			t.Fatalf("ε %v, lifetime %v: limit %d is neither small nor the cap", p.eps, p.lifetime, limit)
		}
		walk(0, 1000)
		walk(MaxReports-1000, MaxReports+1)
	}
}

// TestCellAtMaxReportsParks pins the ledger count's representation limit:
// with a budget that would still afford the report, or with none, a worker
// at MaxReports is refused and one a report below it is not.
func TestCellAtMaxReportsParks(t *testing.T) {
	for _, lifetime := range []float64{0, 1e12} {
		limit, err := ReportLimit(0.5, lifetime)
		if err != nil {
			t.Fatal(err)
		}
		if !(MaxReports-1 < limit) || MaxReports < limit {
			t.Fatalf("lifetime %v: limit %d, want the cap %d", lifetime, limit, MaxReports)
		}
	}
}

func TestPrepareDeterministicAndReseedable(t *testing.T) {
	tree := buildTree(t, 4, 8)
	mk := func() *Controller {
		c, err := NewController(Config{Tree: tree, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	s1, err := mk().Prepare(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := mk().Prepare(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same root seed, same epoch → identical construction (codes match).
	for i := 0; i < tree.NumPoints(); i++ {
		if s1.Tree.CodeOf(i) != s2.Tree.CodeOf(i) {
			t.Fatal("derived preparation not deterministic")
		}
	}
	// An explicit reseed changes the construction.
	s3, err := mk().Prepare(999, nil)
	if err != nil {
		t.Fatal(err)
	}
	same := s3.Tree.Depth() == s1.Tree.Depth()
	if same {
		for i := 0; i < tree.NumPoints(); i++ {
			if s1.Tree.CodeOf(i) != s3.Tree.CodeOf(i) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("explicit reseed produced the identical tree")
	}
}

func TestRefitUsesObservedHistory(t *testing.T) {
	tree := buildTree(t, 5, 8)
	c, err := NewController(Config{Tree: tree, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A heavily skewed histogram: every report at point 17.
	hist := make([]int, tree.NumPoints())
	hist[17] = 50
	staged, err := c.Prepare(0, hist)
	if err != nil {
		t.Fatal(err)
	}
	// The hot point must be the first carving pivot.
	if perm := staged.Tree.Perm(); len(perm) == 0 || perm[0] != 17 {
		t.Fatalf("refit perm starts %v, want point 17 first", perm[:3])
	}
	// An empty histogram orders by index only.
	staged, err = c.Prepare(0, make([]int, tree.NumPoints()))
	if err != nil {
		t.Fatal(err)
	}
	if perm := staged.Tree.Perm(); perm[0] != 0 {
		t.Fatalf("refit perm from no reports starts %d, want 0", perm[0])
	}
	// A histogram of another point set is refused.
	if _, err := c.Prepare(0, hist[1:]); err == nil {
		t.Fatal("a histogram one point short was accepted")
	}
}

// TestRefitOrdersTiesByPointIndex pins the whole carving order under refit,
// ties included: counts descending, equal counts — the unobserved points
// among them — by ascending point index. The caller's histogram is read
// once: a later change to it does not reach a tree already staged.
func TestRefitOrdersTiesByPointIndex(t *testing.T) {
	tree := buildTree(t, 5, 4)
	c, err := NewController(Config{Tree: tree, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hist := make([]int, tree.NumPoints())
	for point, reports := range map[int]int{9: 3, 2: 3, 14: 5, 6: 1, 11: 1, 0: 1} {
		hist[point] = reports
	}
	staged, err := c.Prepare(0, hist)
	if err != nil {
		t.Fatal(err)
	}
	hist[15] = 9
	want := []int{14, 2, 9, 0, 6, 11, 1, 3, 4, 5, 7, 8, 10, 12, 13, 15}
	if got := staged.Tree.Perm(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("refit carving order %v, want %v", got, want)
	}
}

func TestPrepareReplacesStaged(t *testing.T) {
	tree := buildTree(t, 6, 4)
	c, err := NewController(Config{Tree: tree, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := c.Prepare(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Prepare(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Epoch != s2.Epoch {
		t.Fatalf("re-prepare advanced the epoch: %d then %d", s1.Epoch, s2.Epoch)
	}
	if c.StagedRotation() != s2 {
		t.Fatal("re-prepare did not replace the staged rotation")
	}
	// Committing the replaced staging is refused only when the epochs
	// disagree; both stage epoch 2 here, so commit goes through.
	if err := c.Commit(&Staged{Epoch: s1.Epoch + 5, Tree: s1.Tree}, 0); err == nil {
		t.Error("commit of mismatched epoch accepted")
	}
	if err := c.Commit(s1, 0); err != nil {
		t.Fatal(err)
	}
}
