package epoch

import (
	"errors"
	"fmt"
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

// echoReporter returns a deterministic fresh code per worker: the tree's
// real leaf indexed by a hash of the name — a stand-in for client-side
// re-obfuscation in tests that do not care about the distribution.
func echoReporter(tree *hst.Tree, worker string) hst.Code {
	h := 0
	for _, c := range worker {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	return tree.CodeOf(h % tree.NumPoints())
}

func TestControllerValidation(t *testing.T) {
	tree := buildTree(t, 1, 4)
	if _, err := NewController(Config{Tree: nil, Epsilon: 1}); err == nil {
		t.Error("nil tree accepted")
	}
	if _, err := NewController(Config{Tree: tree, Epsilon: 0}); err == nil {
		t.Error("zero epsilon accepted")
	}
	if _, err := NewController(Config{Tree: tree, Epsilon: 1, Lifetime: 0.5}); err == nil {
		t.Error("lifetime below per-report ε accepted")
	}
	if _, err := NewController(Config{Tree: tree, Epsilon: 1, Lifetime: -1}); err == nil {
		t.Error("negative lifetime accepted")
	}
}

func TestControllerLifecycle(t *testing.T) {
	tree := buildTree(t, 1, 8)
	c, err := NewController(Config{Tree: tree, Seed: 7, Epsilon: 0.5, Lifetime: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != FirstEpoch || c.Tree() != tree {
		t.Fatalf("fresh controller: epoch %d", c.Epoch())
	}
	if c.Epsilon() != 0.5 {
		t.Fatal("epsilon not wired")
	}

	// Plan and commit require a staged rotation.
	if _, err := c.PlanRotation(nil, nil, nil); !errors.Is(err, ErrNotStaged) {
		t.Fatalf("plan without prepare: %v", err)
	}
	if err := c.Commit(&Plan{Epoch: 2}); !errors.Is(err, ErrNotStaged) {
		t.Fatalf("commit without prepare: %v", err)
	}

	staged, err := c.Prepare(0, false)
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

	// Two spends per worker fit in the lifetime budget; the third parks.
	// The cells are the caller's: budget walks a plan the way a serving
	// layer does (Afford, swap, Charge).
	workers := []string{"a", "b"}
	cells := make([]float64, len(workers))
	budget := func(p *Plan) {
		for i := range p.Outcomes {
			if c.Afford(workers[i], cells[i]) != nil {
				p.Outcomes[i].Parked = true
				continue
			}
			c.Charge(&cells[i])
		}
	}
	if err := c.Afford("a", cells[0]); err != nil {
		t.Fatal(err)
	}
	c.Charge(&cells[0])
	plan, err := c.PlanRotation(nil, workers, func(w string, tr *hst.Tree) (hst.Code, error) {
		return echoReporter(tr, w), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	budget(plan)
	if len(plan.Outcomes) != 2 || plan.Outcomes[0].Parked || plan.Outcomes[1].Parked {
		t.Fatalf("outcomes = %+v", plan.Outcomes)
	}
	if err := c.Commit(plan); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != 2 || c.Tree() != plan.Tree {
		t.Fatalf("post-commit epoch %d", c.Epoch())
	}
	if c.StagedRotation() != nil {
		t.Fatal("staged rotation survives commit")
	}

	// "a" has spent 1.0 of 1.0: the next rotation parks it; "b" (0.5) still
	// affords one more report.
	if _, err := c.Prepare(0, false); err != nil {
		t.Fatal(err)
	}
	plan, err = c.PlanRotation(nil, workers, func(w string, tr *hst.Tree) (hst.Code, error) {
		return echoReporter(tr, w), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	budget(plan)
	if !plan.Outcomes[0].Parked || plan.Outcomes[1].Parked {
		t.Fatalf("outcomes = %+v", plan.Outcomes)
	}
	if !c.Parked("a") || c.Parked("b") {
		t.Fatal("parked bookkeeping wrong")
	}
	// Parked is terminal: even a spend that would otherwise fit is refused.
	if err := c.Afford("a", 0); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("spend on parked worker: %v", err)
	}
	if err := c.Commit(plan); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.Epoch != 3 || st.Rotations != 2 || st.Parked != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Budget conservation: 1.0 (a) + 1.0 (b: plan1 + plan2) = 2.0.
	if st.SpentTotal != 2.0 {
		t.Fatalf("SpentTotal = %v, want 2", st.SpentTotal)
	}
	if st.Limit != 1.0 || st.Agents != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Rotated != 3 { // 2 in plan1 + 1 in plan2
		t.Fatalf("Rotated = %d, want 3", st.Rotated)
	}
}

func TestPlanRotationRejectsBadReports(t *testing.T) {
	tree := buildTree(t, 2, 8)
	c, err := NewController(Config{Tree: tree, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prepare(0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PlanRotation(nil, []string{"w"}, func(string, *hst.Tree) (hst.Code, error) {
		return "", fmt.Errorf("client offline")
	}); err == nil {
		t.Error("reporter error swallowed")
	}
	if _, err := c.PlanRotation(nil, []string{"w"}, func(string, *hst.Tree) (hst.Code, error) {
		return hst.Code("not a code"), nil
	}); err == nil {
		t.Error("malformed report accepted")
	}
}

func TestSpendWithoutAccounting(t *testing.T) {
	tree := buildTree(t, 3, 4)
	c, err := NewController(Config{Tree: tree, Epsilon: 0.5}) // Lifetime 0
	if err != nil {
		t.Fatal(err)
	}
	var cell float64
	for i := 0; i < 100; i++ {
		if err := c.Afford("w", cell); err != nil {
			t.Fatalf("unbudgeted spend %d refused: %v", i, err)
		}
		c.Charge(&cell)
	}
	if cell != 0 {
		t.Fatalf("unbudgeted charge moved the cell to %v", cell)
	}
	if st := c.Stats(); st.SpentTotal != 0 || st.Limit != 0 {
		t.Fatalf("accounting stats leak without accountant: %+v", st)
	}
}

func TestPrepareDeterministicAndReseedable(t *testing.T) {
	tree := buildTree(t, 4, 8)
	mk := func() *Controller {
		c, err := NewController(Config{Tree: tree, Seed: 42, Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	s1, err := mk().Prepare(0, false)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := mk().Prepare(0, false)
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
	s3, err := mk().Prepare(999, false)
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
	c, err := NewController(Config{Tree: tree, Seed: 1, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Observe a heavily skewed report history: every report at point 17.
	hot := tree.CodeOf(17)
	for i := 0; i < 50; i++ {
		c.Observe(hot)
	}
	// Fake-leaf observations must not count.
	src := rng.New(8)
	for i := 0; i < 50; i++ {
		code := randCode(tree, src)
		if _, ok := tree.PointOf(code); !ok {
			c.Observe(code)
		}
	}
	staged, err := c.Prepare(0, true)
	if err != nil {
		t.Fatal(err)
	}
	// The hot point must be the first carving pivot.
	if perm := staged.Tree.Perm(); len(perm) == 0 || perm[0] != 17 {
		t.Fatalf("refit perm starts %v, want point 17 first", perm[:3])
	}
	// Commit resets the history: the next refit orders by index only.
	plan, err := c.PlanRotation(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(plan); err != nil {
		t.Fatal(err)
	}
	staged, err = c.Prepare(0, true)
	if err != nil {
		t.Fatal(err)
	}
	if perm := staged.Tree.Perm(); perm[0] != 0 {
		t.Fatalf("post-commit refit perm starts %d, want 0 (history not reset)", perm[0])
	}
}

// TestRefitOrdersTiesByPointIndex pins the whole carving order under refit,
// ties included: counts descending, equal counts — the unobserved points
// among them — by ascending point index. A later Observe does not reach a
// tree already staged: Prepare works on a copy of the histogram.
func TestRefitOrdersTiesByPointIndex(t *testing.T) {
	tree := buildTree(t, 5, 4)
	c, err := NewController(Config{Tree: tree, Seed: 1, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for point, reports := range map[int]int{9: 3, 2: 3, 14: 5, 6: 1, 11: 1, 0: 1} {
		for i := 0; i < reports; i++ {
			c.Observe(tree.CodeOf(point))
		}
	}
	staged, err := c.Prepare(0, true)
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(tree.CodeOf(15))
	want := []int{14, 2, 9, 0, 6, 11, 1, 3, 4, 5, 7, 8, 10, 12, 13, 15}
	if got := staged.Tree.Perm(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("refit carving order %v, want %v", got, want)
	}
}

func TestPrepareReplacesStaged(t *testing.T) {
	tree := buildTree(t, 6, 4)
	c, err := NewController(Config{Tree: tree, Seed: 1, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := c.Prepare(1, false)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Prepare(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Epoch != s2.Epoch {
		t.Fatalf("re-prepare advanced the epoch: %d then %d", s1.Epoch, s2.Epoch)
	}
	if c.StagedRotation() != s2 {
		t.Fatal("re-prepare did not replace the staged rotation")
	}
	// Committing a plan from the replaced staging is refused only when the
	// epochs disagree; both stage epoch 2 here, so commit goes through.
	plan, err := c.PlanRotation(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(&Plan{Epoch: plan.Epoch + 5}); err == nil {
		t.Error("commit of mismatched epoch accepted")
	}
	if err := c.Commit(plan); err != nil {
		t.Fatal(err)
	}
}
