package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/match"
)

// crossCheck is the independent reference every driver is held to: it
// mirrors the available pool — worker codes and remaining capacity units —
// in a plain map and re-derives every decision from it without touching
// the engine's index or window kernel.
//
// A task served alone, and every task of a batch under a sequential policy,
// is checked against the capacitated sequential rule of Alg. 4: the minimal
// LCA level among workers with remaining capacity, ties to the smallest
// registration id — match.HSTGreedyScan's order, generalised so a worker
// leaves the pool only when its last unit is consumed.
//
// A batch under a window-solving policy (topK > 0) is checked window by
// window, the windows cut by engine.BatchWindows: before a window consumes
// anything, the reference gives each task its topK nearest mirrored workers
// in (LCA level, id) order and solves one min-cost maximum-cardinality
// matching over them (checkWindow). The answers must match only candidates,
// leave as many tasks unmatched and cost the same Σ LevelDist.
//
// The simulator drives the system from a single goroutine, so any
// divergence is a correctness violation, not a tie-break artefact.
type crossCheck struct {
	tree        *hst.Tree
	topK        int               // window-solving policy's candidate pool; 0 for a sequential policy
	avail       map[int]refWorker // registration id → reported code + units
	checked     int
	nViolations int
	samples     []string // first few violation descriptions
}

// refWorker is one mirrored pool entry.
type refWorker struct {
	code hst.Code
	cap  int
}

// maxSamples bounds the retained violation details.
const maxSamples = 5

func newCrossCheck(tree *hst.Tree, topK int) *crossCheck {
	return &crossCheck{tree: tree, topK: topK, avail: map[int]refWorker{}}
}

// register mirrors a fresh report: a worker enters (or re-enters) the pool
// at the given code with the given remaining capacity. Releases re-use it
// to overwrite the entry with the post-completion code and units.
func (c *crossCheck) register(id int, code hst.Code, capacity int) {
	c.avail[id] = refWorker{code: code, cap: capacity}
}

func (c *crossCheck) withdraw(id int) { delete(c.avail, id) }

// retree swaps the reference to a rotated epoch's tree. The caller must
// have replaced (or withdrawn) every mirrored worker first: codes from the
// old epoch are meaningless under the new tree.
func (c *crossCheck) retree(tree *hst.Tree) { c.tree = tree }

// observe verifies one decision against the sequential rule (id is
// engine.None when the task went unmatched) and consumes it.
func (c *crossCheck) observe(taskCode hst.Code, gotID int) {
	if gotID == engine.None {
		// Under the sequential rule an assignment fails only on an empty pool.
		if len(c.avail) > 0 {
			c.fail(fmt.Sprintf("task %q unassigned with %d workers available", taskCode, len(c.avail)))
		}
	} else if w, present := c.avail[gotID]; present {
		bestLvl, bestID := c.tree.Depth()+1, -1
		for id, rw := range c.avail {
			lvl := c.tree.LCALevel(taskCode, rw.code)
			if lvl < bestLvl || (lvl == bestLvl && id < bestID) {
				bestLvl, bestID = lvl, id
			}
		}
		if got := c.tree.LCALevel(taskCode, w.code); got != bestLvl {
			c.fail(fmt.Sprintf("task %q matched at level %d, nearest available is level %d", taskCode, got, bestLvl))
		} else if gotID != bestID {
			c.fail(fmt.Sprintf("task %q matched worker %d, sequential rule picks %d", taskCode, gotID, bestID))
		}
	}
	c.consume(taskCode, gotID)
}

// observeBatch verifies one batch's answers, ids[i] the worker served
// codes[i], and consumes them.
func (c *crossCheck) observeBatch(codes []hst.Code, ids []int) {
	if c.topK == 0 {
		for i, id := range ids {
			c.observe(codes[i], id)
		}
		return
	}
	for lo, hi := range engine.BatchWindows(len(codes)) {
		c.checkWindow(codes[lo:hi], ids[lo:hi])
		for i := lo; i < hi; i++ {
			c.consume(codes[i], ids[i])
		}
	}
}

// consume counts one decision and takes its unit from the mirror, which
// catches a worker served while gone or past its capacity.
func (c *crossCheck) consume(taskCode hst.Code, gotID int) {
	c.checked++
	if gotID == engine.None {
		return
	}
	w, present := c.avail[gotID]
	if !present {
		c.fail(fmt.Sprintf("task %q assigned to worker %d, which is not available", taskCode, gotID))
		return
	}
	w.cap--
	if w.cap <= 0 {
		delete(c.avail, gotID)
	} else {
		c.avail[gotID] = w
	}
}

// candidate is one reference pairing: a mirrored worker and its LCA level
// with the task.
type candidate struct{ id, lvl int }

// nearest returns the task's topK nearest mirrored workers in (level, id)
// order, by a plain scan of the mirror.
func (c *crossCheck) nearest(taskCode hst.Code) []candidate {
	all := make([]candidate, 0, len(c.avail))
	for id, rw := range c.avail {
		all = append(all, candidate{id: id, lvl: c.tree.LCALevel(taskCode, rw.code)})
	}
	slices.SortFunc(all, func(a, b candidate) int { return cmp.Or(a.lvl-b.lvl, a.id-b.id) })
	return all[:min(len(all), c.topK)]
}

// checkWindow holds one window's answers to the window rule, solved afresh
// over the mirror before the window consumes any unit: the reference is
// match.OptimalCapacitated over the union of the tasks' candidates plus one
// "unmatched" column of capacity nt. That column and every non-candidate
// pairing cost M, more than any nt real pairings, so the optimum is M per
// unmatched task plus the least Σ LevelDist of the most tasks the
// candidates can match. Costs are compared, not pairings: several
// matchings can tie.
func (c *crossCheck) checkWindow(codes []hst.Code, ids []int) {
	nt := len(codes)
	cands := make([][]candidate, nt)
	var colID, caps []int
	seen := map[int]bool{}
	for ti, code := range codes {
		cands[ti] = c.nearest(code)
		for _, cd := range cands[ti] {
			if !seen[cd.id] {
				seen[cd.id] = true
				colID = append(colID, cd.id)
				caps = append(caps, c.avail[cd.id].cap)
			}
		}
	}
	levelOf := func(ti, id int) (int, bool) {
		i := slices.IndexFunc(cands[ti], func(cd candidate) bool { return cd.id == id })
		if i < 0 {
			return 0, false
		}
		return cands[ti][i].lvl, true
	}
	bigM := float64(nt)*hst.LevelDist(c.tree.Depth()) + 1
	_, total, err := match.OptimalCapacitated(nt, append(caps, nt), func(ti, col int) float64 {
		if col < len(colID) {
			if lvl, ok := levelOf(ti, colID[col]); ok {
				return hst.LevelDist(lvl)
			}
		}
		return bigM
	})
	if err != nil {
		panic(fmt.Sprintf("sim: window reference: %v", err)) // unreachable: the unmatched column covers nt
	}
	// Level distances are small integers, so every sum here is exact.
	refUnmatched := math.Floor(total / bigM)
	refCost := total - refUnmatched*bigM

	gotUnmatched, gotCost := 0.0, 0.0
	for ti, id := range ids {
		if id == engine.None {
			gotUnmatched++
		} else if lvl, ok := levelOf(ti, id); ok {
			gotCost += hst.LevelDist(lvl)
		} else {
			c.fail(fmt.Sprintf("task %q matched worker %d, not one of its %d nearest", codes[ti], id, c.topK))
		}
	}
	if gotUnmatched != refUnmatched {
		c.fail(fmt.Sprintf("window of %d tasks left %g unmatched, the reference %g", nt, gotUnmatched, refUnmatched))
	}
	if gotCost != refCost {
		c.fail(fmt.Sprintf("window of %d tasks costs Σ LevelDist %g, the reference %g", nt, gotCost, refCost))
	}
}

func (c *crossCheck) fail(msg string) {
	c.nViolations++
	if len(c.samples) < maxSamples {
		c.samples = append(c.samples, msg)
	}
}
