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
// in a plain map keyed by worker index and re-derives every decision from
// it without touching the engine's index or window kernel.
//
// A task served alone, and every task of a batch under a sequential policy,
// is checked against the capacitated sequential rule of Alg. 4: the minimal
// LCA level among workers with remaining capacity, ties to the stint that
// registered first — match.HSTGreedyScan's order, generalised so a worker
// leaves the pool only when its last unit is consumed.
//
// That tie order is the server's slot order, and the mirror keeps it as a
// rank given to each stint when it registers: a new worker, a returning
// one, or a rotation re-report, in report order. A release keeps the rank,
// also after the stint's last pooled unit was consumed.
//
// A batch under a window-solving policy (topK > 0) is checked window by
// window, the windows cut by engine.BatchWindows: before a window consumes
// anything, the reference gives each task its topK nearest mirrored workers
// in (LCA level, rank) order and solves one min-cost maximum-cardinality
// matching over them (checkWindow). The answers must match only candidates,
// leave as many tasks unmatched and cost the same Σ LevelDist.
//
// The simulator drives the system from a single goroutine, so any
// divergence is a correctness violation, not a tie-break artefact.
type crossCheck struct {
	tree        *hst.Tree
	topK        int               // window-solving policy's candidate pool; 0 for a sequential policy
	avail       map[int]refWorker // worker index → reported code, units and rank
	rank        map[int]int       // worker index → its current stint's rank
	nextRank    int
	checked     int
	nViolations int
	samples     []string // first few violation descriptions
}

// refWorker is one mirrored pool entry.
type refWorker struct {
	code hst.Code
	cap  int
	rank int
}

// maxSamples bounds the retained violation details.
const maxSamples = 5

func newCrossCheck(tree *hst.Tree, topK int) *crossCheck {
	return &crossCheck{tree: tree, topK: topK, avail: map[int]refWorker{}, rank: map[int]int{}}
}

// register mirrors a new stint: worker w enters the pool at code with the
// given capacity and ranks after every stint before it.
func (c *crossCheck) register(w int, code hst.Code, capacity int) {
	c.rank[w] = c.nextRank
	c.nextRank++
	c.release(w, code, capacity)
}

// release mirrors a re-report within the stint: worker w's entry moves to
// code with the given remaining units and keeps its rank.
func (c *crossCheck) release(w int, code hst.Code, capacity int) {
	c.avail[w] = refWorker{code: code, cap: capacity, rank: c.rank[w]}
}

func (c *crossCheck) withdraw(w int) { delete(c.avail, w) }

// retree swaps the reference to a rotated epoch's tree. The caller must
// have replaced (or withdrawn) every mirrored worker first: codes from the
// old epoch are meaningless under the new tree.
func (c *crossCheck) retree(tree *hst.Tree) { c.tree = tree }

// observe verifies one decision against the sequential rule (got is the
// served worker, engine.None when the task went unmatched) and consumes it.
func (c *crossCheck) observe(taskCode hst.Code, got int) {
	if got == engine.None {
		// Under the sequential rule an assignment fails only on an empty pool.
		if len(c.avail) > 0 {
			c.fail(fmt.Sprintf("task %q unassigned with %d workers available", taskCode, len(c.avail)))
		}
	} else if gw, present := c.avail[got]; present {
		bestLvl, bestRank, bestW := c.tree.Depth()+1, 0, -1
		for w, rw := range c.avail {
			lvl := c.tree.LCALevel(taskCode, rw.code)
			if lvl < bestLvl || (lvl == bestLvl && rw.rank < bestRank) {
				bestLvl, bestRank, bestW = lvl, rw.rank, w
			}
		}
		if lvl := c.tree.LCALevel(taskCode, gw.code); lvl != bestLvl {
			c.fail(fmt.Sprintf("task %q matched at level %d, nearest available is level %d", taskCode, lvl, bestLvl))
		} else if got != bestW {
			c.fail(fmt.Sprintf("task %q matched worker %d, sequential rule picks %d", taskCode, got, bestW))
		}
	}
	c.consume(taskCode, got)
}

// observeBatch verifies one batch's answers, ws[i] the worker served
// codes[i], and consumes them.
func (c *crossCheck) observeBatch(codes []hst.Code, ws []int) {
	if c.topK == 0 {
		for i, w := range ws {
			c.observe(codes[i], w)
		}
		return
	}
	for lo, hi := range engine.BatchWindows(len(codes)) {
		c.checkWindow(codes[lo:hi], ws[lo:hi])
		for i := lo; i < hi; i++ {
			c.consume(codes[i], ws[i])
		}
	}
}

// consume counts one decision and takes its unit from the mirror, which
// catches a worker served while gone or past its capacity.
func (c *crossCheck) consume(taskCode hst.Code, got int) {
	c.checked++
	if got == engine.None {
		return
	}
	rw, present := c.avail[got]
	if !present {
		c.fail(fmt.Sprintf("task %q assigned to worker %d, which is not available", taskCode, got))
		return
	}
	rw.cap--
	if rw.cap <= 0 {
		delete(c.avail, got)
	} else {
		c.avail[got] = rw
	}
}

// candidate is one reference pairing: a mirrored worker, its LCA level
// with the task and its stint's rank.
type candidate struct{ id, lvl, rank int }

// nearest returns the task's topK nearest mirrored workers in (level, rank)
// order, by a plain scan of the mirror.
func (c *crossCheck) nearest(taskCode hst.Code) []candidate {
	all := make([]candidate, 0, len(c.avail))
	for w, rw := range c.avail {
		all = append(all, candidate{id: w, lvl: c.tree.LCALevel(taskCode, rw.code), rank: rw.rank})
	}
	slices.SortFunc(all, func(a, b candidate) int { return cmp.Or(a.lvl-b.lvl, a.rank-b.rank) })
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
