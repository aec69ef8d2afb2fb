package epoch

import (
	"errors"
	"fmt"
	"testing"
	"unsafe"

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
	if st := c.Stats(); st.Epoch != FirstEpoch || c.Tree() != tree {
		t.Fatalf("fresh controller: epoch %d", st.Epoch)
	}
	if c.Epsilon() != 0.5 {
		t.Fatal("epsilon not wired")
	}

	// Commit requires a staged rotation.
	if err := c.Commit(&Staged{Epoch: 2, Tree: tree}, 0); !errors.Is(err, ErrNotStaged) {
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
	// The cells are the caller's: rotate walks the workers the way a
	// serving layer does (Afford, swap, Charge) and reports who parked and
	// how many rotated, for Commit.
	workers := []string{"a", "b"}
	cells := make([]uint32, len(workers))
	rotate := func() (parked []bool, rotated int) {
		parked = make([]bool, len(workers))
		for i, w := range workers {
			if c.Afford(w, cells[i]) != nil {
				parked[i] = true
				continue
			}
			cells[i] = c.Charge(cells[i])
			rotated++
		}
		return parked, rotated
	}
	if err := c.Afford("a", cells[0]); err != nil {
		t.Fatal(err)
	}
	cells[0] = c.Charge(cells[0])
	parked, rotated := rotate()
	if parked[0] || parked[1] || rotated != 2 {
		t.Fatalf("parked = %v, rotated %d", parked, rotated)
	}
	if err := c.Commit(staged, rotated); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Epoch != 2 || c.Tree() != staged.Tree {
		t.Fatalf("post-commit epoch %d", st.Epoch)
	}
	if c.StagedRotation() != nil {
		t.Fatal("staged rotation survives commit")
	}

	// "a" has spent 1.0 of 1.0 (two reports): the next rotation parks it;
	// "b" (0.5, one report) still affords one more.
	staged, err = c.Prepare(0, false)
	if err != nil {
		t.Fatal(err)
	}
	parked, rotated = rotate()
	if !parked[0] || parked[1] || rotated != 1 {
		t.Fatalf("parked = %v, rotated %d", parked, rotated)
	}
	if !c.Parked("a") || c.Parked("b") {
		t.Fatal("parked bookkeeping wrong")
	}
	// Parked is terminal: even a spend that would otherwise fit is refused.
	if err := c.Afford("a", 0); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("spend on parked worker: %v", err)
	}
	if err := c.Commit(staged, rotated); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.Epoch != 3 || st.Rotations != 2 || st.Parked != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Budget conservation: 1.0 (a) + 1.0 (b: rotations 1 and 2) = 2.0.
	if st.SpentTotal != 2.0 {
		t.Fatalf("SpentTotal = %v, want 2", st.SpentTotal)
	}
	if st.Limit != 1.0 || st.Agents != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Rotated != 3 { // 2 in rotation 1 + 1 in rotation 2
		t.Fatalf("Rotated = %d, want 3", st.Rotated)
	}
}

// TestParkedKeepsItsOwnID pins that the parked set copies the id it parks:
// a caller may pass a view of storage it later overwrites or drops (the
// platform's id slab).
func TestParkedKeepsItsOwnID(t *testing.T) {
	c, err := NewController(Config{Tree: buildTree(t, 1, 4), Epsilon: 0.5, Lifetime: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("worker-7")
	if err := c.Afford(unsafe.String(&buf[0], len(buf)), 1); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("over-budget afford: %v", err)
	}
	copy(buf, "xxxxxxxx")
	if !c.Parked("worker-7") || c.Parked("xxxxxxxx") {
		t.Fatal("the parked set reads the caller's bytes, not its own copy")
	}
}

// TestCommitRefusals pins Commit's two refusals — nothing staged, before
// any Prepare and again after a commit cleared the staging, and a staged
// epoch that differs — and that a refused commit leaves the controller
// serving what it served.
func TestCommitRefusals(t *testing.T) {
	tree := buildTree(t, 2, 8)
	c, err := NewController(Config{Tree: tree, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(&Staged{Epoch: 2, Tree: tree}, 1); !errors.Is(err, ErrNotStaged) {
		t.Fatalf("commit with nothing staged: %v", err)
	}
	staged, err := c.Prepare(0, false)
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

func TestSpendWithoutAccounting(t *testing.T) {
	tree := buildTree(t, 3, 4)
	c, err := NewController(Config{Tree: tree, Epsilon: 0.5}) // Lifetime 0
	if err != nil {
		t.Fatal(err)
	}
	var cell uint32
	for i := 0; i < 100; i++ {
		if err := c.Afford("w", cell); err != nil {
			t.Fatalf("unbudgeted spend %d refused: %v", i, err)
		}
		cell = c.Charge(cell)
	}
	if cell != 0 {
		t.Fatalf("unbudgeted charge moved the cell to %v", cell)
	}
	if st := c.Stats(); st.SpentTotal != 0 || st.Limit != 0 {
		t.Fatalf("accounting stats leak without accountant: %+v", st)
	}
}

// TestCellAtMaxReportsParks pins the ledger cell's representation limit: a
// worker whose count reached MaxReports is parked by the usual typed
// refusal, with a budget that would still afford the report or with none,
// and one a report below it is not.
func TestCellAtMaxReportsParks(t *testing.T) {
	for _, lifetime := range []float64{0, 1e12} {
		c, err := NewController(Config{Tree: buildTree(t, 3, 4), Epsilon: 0.5, Lifetime: lifetime})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Afford("w", MaxReports-1); err != nil {
			t.Fatalf("lifetime %v: a cell one below the cap refused: %v", lifetime, err)
		}
		if err := c.Afford("w", MaxReports); !errors.Is(err, ErrBudgetExhausted) || !c.Parked("w") {
			t.Fatalf("lifetime %v: a cell at the cap: %v, parked %v", lifetime, err, c.Parked("w"))
		}
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
	// Accept a heavily skewed report history: every report at point 17.
	hot := tree.CodeOf(17)
	for i := 0; i < 50; i++ {
		c.Accept(0, hot)
	}
	// Fake-leaf observations must not count.
	src := rng.New(8)
	for i := 0; i < 50; i++ {
		code := randCode(tree, src)
		if _, ok := tree.PointOf(code); !ok {
			c.Accept(0, code)
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
	if err := c.Commit(staged, 0); err != nil {
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
// among them — by ascending point index. A later Accept does not reach a
// tree already staged: Prepare works on a copy of the histogram.
func TestRefitOrdersTiesByPointIndex(t *testing.T) {
	tree := buildTree(t, 5, 4)
	c, err := NewController(Config{Tree: tree, Seed: 1, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for point, reports := range map[int]int{9: 3, 2: 3, 14: 5, 6: 1, 11: 1, 0: 1} {
		for i := 0; i < reports; i++ {
			c.Accept(0, tree.CodeOf(point))
		}
	}
	staged, err := c.Prepare(0, true)
	if err != nil {
		t.Fatal(err)
	}
	c.Accept(0, tree.CodeOf(15))
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
	// Committing the replaced staging is refused only when the epochs
	// disagree; both stage epoch 2 here, so commit goes through.
	if err := c.Commit(&Staged{Epoch: s1.Epoch + 5, Tree: s1.Tree}, 0); err == nil {
		t.Error("commit of mismatched epoch accepted")
	}
	if err := c.Commit(s1, 0); err != nil {
		t.Fatal(err)
	}
}
