package sim

import (
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/rng"
)

// fixtureLeaves returns an 8×8 grid's tree and the codes of its first and
// last leaves.
func fixtureLeaves(t *testing.T) (*hst.Tree, []hst.Code) {
	t.Helper()
	grid, err := geo.NewGrid(geo.Rect{MaxX: 8, MaxY: 8}, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hst.Build(grid.Points(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	return tree, []hst.Code{tree.CodeOf(0), tree.CodeOf(grid.Len() - 1)}
}

// windowFixture mirrors two workers on distinct leaves of an 8×8 tree and
// returns the checker (candidate pool k = 8) with one task on each
// worker's leaf, so the only optimal window answer is tasks[i] → worker i.
func windowFixture(t *testing.T) (*crossCheck, []hst.Code) {
	tree, codes := fixtureLeaves(t)
	c := newCrossCheck(tree, 8)
	for id, code := range codes {
		c.register(id, code, 1)
	}
	return c, codes
}

func TestWindowCheckPassesTheOptimum(t *testing.T) {
	c, tasks := windowFixture(t)
	c.observeBatch(tasks, []int{0, 1})
	if c.nViolations != 0 || c.checked != 2 || len(c.avail) != 0 {
		t.Errorf("optimal window: %d violations (%v), %d checked, %d left in the mirror",
			c.nViolations, c.samples, c.checked, len(c.avail))
	}
}

// TestWindowCheckCatchesSwap is the window rule's mutation check: two
// tasks' workers swapped inside a window is a feasible answer — both are
// candidates with a unit to spare — that only the reference's cost
// catches.
func TestWindowCheckCatchesSwap(t *testing.T) {
	c, tasks := windowFixture(t)
	c.observeBatch(tasks, []int{1, 0})
	if c.nViolations == 0 {
		t.Error("the checker passed a window whose two tasks' workers were swapped")
	} else {
		t.Logf("first violation: %s", c.samples[0])
	}
}

func TestWindowCheckCatchesUnmatched(t *testing.T) {
	c, tasks := windowFixture(t)
	c.observeBatch(tasks, []int{0, engine.None})
	if c.nViolations == 0 {
		t.Error("the checker passed a window that left a task unmatched although the reference covers it")
	} else {
		t.Logf("first violation: %s", c.samples[0])
	}
}

// leafFixture returns an empty sequential checker over an 8×8 tree and
// the code of one leaf.
func leafFixture(t *testing.T) (*crossCheck, hst.Code) {
	tree, leaves := fixtureLeaves(t)
	return newCrossCheck(tree, 0), leaves[0]
}

// TestTieGoesToEarlierStint pins the rank rule: of two workers on one
// leaf, the one that registered first wins the tie, even when the other
// has the smaller index — the server's slot order, not the index order.
func TestTieGoesToEarlierStint(t *testing.T) {
	c, leaf := leafFixture(t)
	c.register(5, leaf, 1)
	c.register(2, leaf, 1)
	c.observe(leaf, 2)
	if c.nViolations != 1 {
		t.Errorf("serving the later stint (worker 2) read %d violations, want 1", c.nViolations)
	}
	c, leaf = leafFixture(t)
	c.register(5, leaf, 1)
	c.register(2, leaf, 1)
	c.observe(leaf, 5)
	if c.nViolations != 0 {
		t.Errorf("serving the earlier stint (worker 5): %v", c.samples)
	}
}

// TestReleaseKeepsRank: a worker whose last pooled unit was consumed
// re-enters the pool by a release at its old rank, ahead of a stint that
// registered after it.
func TestReleaseKeepsRank(t *testing.T) {
	c, leaf := leafFixture(t)
	c.register(5, leaf, 1)
	c.observe(leaf, 5)
	if _, pooled := c.avail[5]; pooled {
		t.Fatal("worker 5's only unit was consumed, yet it is still mirrored")
	}
	c.register(2, leaf, 1)
	c.release(5, leaf, 1)
	c.observe(leaf, 5)
	if c.nViolations != 0 {
		t.Errorf("released worker 5 lost its rank to worker 2: %v", c.samples)
	}
}

// TestReturningWorkerRanksLast: a worker that withdraws and registers
// again starts a new stint, ranked after every stint before it.
func TestReturningWorkerRanksLast(t *testing.T) {
	c, leaf := leafFixture(t)
	c.register(1, leaf, 1)
	c.register(7, leaf, 1)
	c.withdraw(1)
	c.register(1, leaf, 1)
	c.observe(leaf, 7)
	c.observe(leaf, 1)
	if c.nViolations != 0 || len(c.avail) != 0 {
		t.Errorf("returning worker 1 should rank after worker 7: %d violations %v, %d left",
			c.nViolations, c.samples, len(c.avail))
	}
	c, leaf = leafFixture(t)
	c.register(1, leaf, 1)
	c.register(7, leaf, 1)
	c.withdraw(1)
	c.register(1, leaf, 1)
	c.observe(leaf, 1)
	if c.nViolations != 1 {
		t.Errorf("serving returning worker 1 ahead of worker 7 read %d violations, want 1", c.nViolations)
	}
}

// TestDecodeAnswersNone pins that a served answer naming no registered
// worker decodes to engine.None rather than to some worker.
func TestDecodeAnswersNone(t *testing.T) {
	s := &sim{workers: make([]simWorker, 5)}
	s.workers[3].code = "0"
	if got := s.decode(platform.TaskResponse{Assigned: true, WorkerID: "w3"}); got != 3 {
		t.Errorf("decode(w3) = %d, want 3", got)
	}
	if got := s.decode(platform.TaskResponse{WorkerID: "w3"}); got != engine.None {
		t.Errorf("decode of an unassigned answer = %d, want engine.None", got)
	}
	for _, id := range []string{"", "w", "w-1", "w5", "w2", "3", "x3", "w3x"} {
		if got := s.decode(platform.TaskResponse{Assigned: true, WorkerID: id}); got != engine.None {
			t.Errorf("decode(%q) = %d, want engine.None", id, got)
		}
	}
}
