package sim

import (
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

// windowFixture mirrors two workers on distinct leaves of an 8×8 tree and
// returns the checker (candidate pool k = 8) with one task on each
// worker's leaf, so the only optimal window answer is tasks[i] → worker i.
func windowFixture(t *testing.T) (*crossCheck, []hst.Code) {
	t.Helper()
	grid, err := geo.NewGrid(geo.Rect{MaxX: 8, MaxY: 8}, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hst.Build(grid.Points(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	codes := []hst.Code{tree.CodeOf(0), tree.CodeOf(grid.Len() - 1)}
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

// TestDecodeAnswersNone pins that a served WorkerID naming no current
// registration decodes to engine.None rather than to some registration.
func TestDecodeAnswersNone(t *testing.T) {
	b := &platformBackend{curRegOf: map[int]int{3: 12}}
	if got := b.decode("w3"); got != 12 {
		t.Errorf("decode(w3) = %d, want 12", got)
	}
	for _, id := range []string{"", "w", "w7", "3", "x3", "w3x"} {
		if got := b.decode(id); got != engine.None {
			t.Errorf("decode(%q) = %d, want engine.None", id, got)
		}
	}
}
