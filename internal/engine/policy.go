package engine

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"github.com/pombm/pombm/internal/flow"
	"github.com/pombm/pombm/internal/hst"
)

// Policy is the pluggable assignment rule: it decides which available
// workers serve a batch's tasks, against the engine's index, and whether a
// worker carries more than one capacity unit. A task served alone always
// pops its tree-nearest worker (Engine.Assign). The batch method is
// unexported — implementations need the engine's locking internals, so
// policies live in this package and callers select one with Greedy,
// CapacityGreedy, BatchOptimal, or PolicyByName.
type Policy interface {
	// Name identifies the policy in stats, reports, and flags, and
	// PolicyByName reads it back as the same policy.
	Name() string
	// CapacityAware reports whether worker capacities above one are
	// honoured. The engine clamps every insert to capacity 1 otherwise, so
	// a non-capacity-aware policy always sees the paper's one-task-per-
	// worker pool.
	CapacityAware() bool

	assignWindow(e *Engine, codes []hst.Code) (ids, lcaLevels []int)
}

// greedyPolicy is the sequential nearest-worker rule of Alg. 4: each task
// pops the tree-nearest available worker, ties to the smallest id. With
// capacity enabled a pop consumes one capacity unit instead of the whole
// slot — the capacitated sequential rule — and with it disabled the policy
// is bit-identical to the engine's historical hardwired greedy.
type greedyPolicy struct {
	capacity bool
}

var (
	greedySingleton    = &greedyPolicy{capacity: false}
	capGreedySingleton = &greedyPolicy{capacity: true}
)

// Greedy returns the paper-faithful assignment policy: one task per worker
// slot, nearest worker in tree distance, ties to the smallest id. It is the
// default, and its serving path preserves the engine's zero-allocation
// steady-state contract.
func Greedy() Policy { return greedySingleton }

// CapacityGreedy returns the capacitated sequential rule: the same
// nearest-worker decision, but a worker with remaining capacity k serves up
// to k tasks, leaving the pool only when its last unit is consumed.
func CapacityGreedy() Policy { return capGreedySingleton }

func (p *greedyPolicy) Name() string {
	if p.capacity {
		return "capacity-greedy"
	}
	return "greedy"
}

func (p *greedyPolicy) CapacityAware() bool { return p.capacity }

func (p *greedyPolicy) assignWindow(e *Engine, codes []hst.Code) ([]int, []int) {
	return e.greedyAssignWindow(codes)
}

// DefaultBatchTopK is the candidate pool mined per task by the
// batch-optimal policy when no explicit k is configured.
const DefaultBatchTopK = 8

// batchOptimalPolicy serves each batch window as one restricted bipartite
// matching: every task mines its top-k nearest candidates from the trie
// (non-destructively, by arena ref — no code string ever materialises),
// and the window is solved cost-optimally over the candidate union with
// the warm-started flow.Bipartite solver, worker capacities bounding how
// many tasks one candidate absorbs. One-task serving degenerates to the
// greedy rule (the cost-optimal choice for a single task is its nearest
// candidate), so only batch submissions pay the solve.
//
// The hot path is arena-backed end to end: all window scratch — candidate
// regions, the dedup table, the solver — lives in a pooled
// windowScratch that reaches its high-water mark after a few windows and
// then serves steady state at single-digit allocations per window, and no
// per-candidate or per-worker lookup on it goes through a hash map (the
// index's capacities, the dedup table and the warm potentials are all
// index-addressed slabs). Worker potentials (the solver's dual prices)
// carry from window to window addressed by worker id, so a typical task's
// augmenting search pops its final worker immediately; an epoch swap
// invalidates the warm state wholesale — the check is identity of the
// state token the caller solves under, so a window for another epoch (or
// another engine) always starts cold.
//
// The window rule itself — which candidates share a solver column, what an
// arc costs, what warm state carries over — is stated once, in
// buildAndSolve. The in-process path mines each task's k nearest into the
// scratch by arena ref and commits by ref; a cluster coordinator merges the
// lists its nodes mined into the same k nearest, loads them through
// SolveMined and commits remotely. Neither restates the rule.
type batchOptimalPolicy struct {
	k    int
	pool sync.Pool // *windowScratch

	// Warm solver potentials, one per worker id (a paged slab addressed by
	// the id, see warmSlab), shared by every window this policy serves. They
	// live on the policy — not in the pooled scratch — so the warm history a
	// window sees does not depend on which scratch the pool happened to hand
	// out; the matching a window picks among cost-equal alternatives can
	// depend on its seed potentials, and scratch-resident warmth would make
	// results depend on pool checkout order. warmMu guards the slab for the
	// shared-policy case (one policy serving several engines); within one
	// engine every access is already ordered by the engine's lock.
	// warmState pins the potentials to the state they were learned
	// under — an opaque token compared by identity (the engine passes its
	// *epochState, a coordinator its own per-epoch state) — and any other
	// state drops every page and starts cold.
	warmMu    sync.Mutex
	warm      warmSlab
	warmState any
}

// BatchOptimal returns the window-solving policy with a per-task candidate
// pool of k (≤ 0 selects DefaultBatchTopK). It is capacity-aware.
func BatchOptimal(k int) Policy {
	if k <= 0 {
		k = DefaultBatchTopK
	}
	p := &batchOptimalPolicy{k: k}
	p.pool.New = func() any {
		return &windowScratch{solver: flow.NewBipartite()}
	}
	return p
}

func (p *batchOptimalPolicy) Name() string {
	return fmt.Sprintf("batch-optimal:k=%d", p.k)
}

func (p *batchOptimalPolicy) CapacityAware() bool { return true }

func (p *batchOptimalPolicy) TopK() int { return p.k }

func (p *batchOptimalPolicy) assignWindow(e *Engine, codes []hst.Code) ([]int, []int) {
	ids := make([]int, len(codes))
	lvls := make([]int, len(codes))
	for i := range ids {
		ids[i] = None
	}
	// Each window under its own hold of the engine's lock: exactly the
	// outcome of submitting the windows as separate batches.
	for lo, hi := range BatchWindows(len(codes)) {
		p.solveWindow(e, codes[lo:hi], ids[lo:hi], lvls[lo:hi])
	}
	return ids, lvls
}

// refKey identifies one candidate across a window: the same worker mined
// by several tasks must collapse to one solver column so its capacity is
// respected window-wide.
type refKey struct {
	node int32
	id   int32
}

// windowScratch is the reusable arena behind one window solve. It lives in
// the policy's sync.Pool; every slice — the dedup table's slot slab
// included — grows to the policy's (window × k) envelope once and is then
// reused without being cleared. Nothing in it carries meaning from one
// window to the next: the warm-start seam is the policy's warm slab.
type windowScratch struct {
	valid   []int32            // positions of well-formed tasks in the window
	cands   []hst.CandidateRef // per-task candidate regions, k slots each
	candCol []int32            // solver column per candidate slot (set by buildAndSolve)
	candCnt []int32            // live candidates per task
	dedup   dedupTable         // candidate → solver worker column
	workers []hst.CandidateRef // unique candidates, first-seen order
	arcLvl  []int32            // LCA level per solver arc
	solver  *flow.Bipartite
}

// sizeFor grows the slabs the window kernel reads — per-task candidate
// regions — to a window of nt tasks at pool k. Whoever loads the window
// (mineWindow, SolveMined) fills them.
func (ws *windowScratch) sizeFor(nt, k int) {
	ws.cands = growRef(ws.cands, nt*k)
	ws.candCol = growI32(ws.candCol, nt*k)
	ws.candCnt = growI32(ws.candCnt, nt)
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growRef(s []hst.CandidateRef, n int) []hst.CandidateRef {
	if cap(s) < n {
		return make([]hst.CandidateRef, n)
	}
	return s[:n]
}

// solveWindow serves one window under one hold of the engine's lock (a
// window is a global decision: it mines, solves and commits against one
// pool). The body is a straight-line composition of the stage methods
// below.
func (p *batchOptimalPolicy) solveWindow(e *Engine, codes []hst.Code, ids, lvls []int) {
	st := e.locked()
	defer e.mu.Unlock()
	// Counted inside the hold: whoever holds the lock reads a count of
	// whole windows, none in progress.
	e.windows.Add(1)

	ws := p.pool.Get().(*windowScratch)
	defer p.pool.Put(ws)
	if p.mineWindow(ws, st, codes, ids, lvls) == 0 {
		return
	}
	p.buildAndSolve(ws, st)
	p.commitWindow(ws, st, ids, lvls)
}

// mineWindow admits the window's well-formed tasks and mines each one's k
// nearest candidates by arena ref. It returns the number of tasks needing
// a solve — 0 when the window or the pool is empty. Caller holds the lock.
func (p *batchOptimalPolicy) mineWindow(ws *windowScratch, st *epochState, codes []hst.Code, ids, lvls []int) int {
	// Valid tasks only; malformed codes answer None without touching state.
	ws.valid = ws.valid[:0]
	for i, code := range codes {
		ids[i], lvls[i] = None, 0
		if st.tree.CheckCode(code) == nil {
			ws.valid = append(ws.valid, int32(i))
		}
	}
	nt, k := len(ws.valid), p.k
	if nt == 0 || st.index.Len() == 0 {
		return 0
	}
	ws.sizeFor(nt, k)
	for ti, i := range ws.valid {
		region := ws.cands[ti*k : ti*k : (ti+1)*k]
		ws.candCnt[ti] = int32(len(st.index.NearestKRef(codes[i], k, region)))
	}
	return nt
}

// buildAndSolve is the rest of the window kernel: it deduplicates
// candidates into solver columns (first-seen order), builds the restricted
// bipartite problem — one arc per mined pairing at cost = tree distance of
// its LCA level, one column per worker bounded by its remaining capacity,
// potentials seeded from the policy's warm slab (learned under state, else
// dropped) — runs the solver, and banks the closing potentials of every
// column, matched or not, for the next window's warm start. It reads only
// the scratch's mined refs and the warm slab, never the tries.
func (p *batchOptimalPolicy) buildAndSolve(ws *windowScratch, state any) {
	nt, k := len(ws.valid), p.k
	ws.dedup.reset(nt * k)
	ws.workers = ws.workers[:0]
	ws.arcLvl = ws.arcLvl[:0]
	for ti := 0; ti < nt; ti++ {
		for j := 0; j < int(ws.candCnt[ti]); j++ {
			c := ws.cands[ti*k+j]
			col, fresh := ws.dedup.column(refKey{node: c.Node, id: c.ID}, int32(len(ws.workers)))
			if fresh {
				ws.workers = append(ws.workers, c)
			}
			ws.candCol[ti*k+j] = col // the arc pass below reads it back
		}
	}
	sol := ws.solver
	sol.Reset(nt, len(ws.workers))
	p.warmMu.Lock()
	if p.warmState != state {
		p.warm.drop()
		p.warmState = state
	}
	for w, c := range ws.workers {
		sol.SetWorker(w, int(c.Cap), p.warm.get(c.ID))
	}
	p.warmMu.Unlock()
	for ti := 0; ti < nt; ti++ {
		for j := 0; j < int(ws.candCnt[ti]); j++ {
			lvl := ws.cands[ti*k+j].Level
			if err := sol.AddArc(ti, int(ws.candCol[ti*k+j]), hst.LevelDist(int(lvl))); err != nil {
				// Unreachable: arcs are built from mined refs in task order
				// with finite level distances (a coordinator validates what
				// its nodes report before loading it). Surfacing beats a
				// silently wrong matching.
				panic(fmt.Sprintf("engine: batch-optimal arc build: %v", err))
			}
			ws.arcLvl = append(ws.arcLvl, lvl)
		}
	}
	sol.Run()
	p.warmMu.Lock()
	if p.warmState == state {
		for w, c := range ws.workers {
			p.warm.set(c.ID, sol.WorkerPot(w))
		}
	}
	p.warmMu.Unlock()
}

// SolveMined is the window kernel's entry for a cluster coordinator, whose
// candidates were mined on other processes: it runs dedup, build, solve
// and bank-potentials over code-addressed lists and returns each task's
// matched worker — its id and leaf code for the remote commit and the LCA
// level of the match, ID None for an unmatched task. lists[i] is the i-th
// well-formed task's k nearest candidates cluster-wide, in (level, id)
// order, exactly what NearestKRef answers on one index. Lists must already
// be validated: at most TopK entries each, ids and capacities within
// int32, levels the tree has. state is the warm-start token (see
// warmState). Together with TopK — the pool every node mines with — it is
// all a coordinator needs of the policy.
func (p *batchOptimalPolicy) SolveMined(state any, lists [][]hst.Candidate) []hst.Candidate {
	ws := p.pool.Get().(*windowScratch)
	defer p.pool.Put(ws)
	nt, k := len(lists), p.k

	// A worker is one (leaf, id) pair however many lists carry it; its
	// position in the table of distinct workers stands in for the arena
	// node of a locally mined ref, so the kernel's column dedup is exactly
	// the in-process one.
	var table []hst.Candidate
	seen := map[hst.Candidate]int32{}
	ws.valid = ws.valid[:0]
	ws.sizeFor(nt, k)
	for ti, list := range lists {
		ws.valid = append(ws.valid, int32(ti))
		ws.candCnt[ti] = int32(len(list))
		for j, c := range list {
			key := hst.Candidate{ID: c.ID, Code: c.Code}
			n, ok := seen[key]
			if !ok {
				n = int32(len(table))
				seen[key] = n
				table = append(table, c)
			}
			ws.cands[ti*k+j] = hst.CandidateRef{ID: int32(c.ID), Node: n, Level: int32(c.Level), Cap: int32(c.Cap)}
		}
	}
	p.buildAndSolve(ws, state)

	matched := make([]hst.Candidate, nt)
	for ti := range matched {
		matched[ti].ID = None
		if a := ws.solver.MatchedArc(ti); a >= 0 {
			matched[ti] = table[ws.workers[ws.solver.MatchedWorker(ti)].Node]
			matched[ti].Level = int(ws.arcLvl[a])
		}
	}
	return matched
}

// commitWindow consumes one capacity unit per matched arc and stamps the
// window's answers. Caller holds the lock and has held it since the mine
// that produced these refs, so a missing candidate is a bug, not a race.
func (p *batchOptimalPolicy) commitWindow(ws *windowScratch, st *epochState, ids, lvls []int) {
	sol := ws.solver
	for ti, i := range ws.valid {
		a := sol.MatchedArc(ti)
		if a < 0 {
			continue
		}
		c := ws.workers[sol.MatchedWorker(ti)]
		if !st.index.ConsumeRef(c) {
			// Unreachable: the candidate was mined under the same hold
			// the commit runs in. Surfacing beats silently double-booking.
			panic(fmt.Sprintf("engine: batch-optimal commit lost candidate %d", c.ID))
		}
		st.assigns++
		ids[i], lvls[i] = int(c.ID), int(ws.arcLvl[a])
	}
}

// PolicyNames lists the selectable policy specs for flag help.
func PolicyNames() []string {
	return []string{"greedy", "capacity-greedy", "batch-optimal", "batch-optimal:k=<n>"}
}

// PolicyByName resolves a policy spec: "greedy", "capacity-greedy",
// "batch-optimal", or "batch-optimal:k=<n>" for an explicit per-task
// candidate pool.
func PolicyByName(spec string) (Policy, error) {
	switch spec {
	case "", "greedy":
		return Greedy(), nil
	case "capacity-greedy":
		return CapacityGreedy(), nil
	case "batch-optimal":
		return BatchOptimal(0), nil
	}
	if rest, ok := strings.CutPrefix(spec, "batch-optimal:k="); ok {
		k, err := strconv.Atoi(rest)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("engine: bad batch-optimal candidate pool %q", rest)
		}
		return BatchOptimal(k), nil
	}
	return nil, fmt.Errorf("engine: unknown policy %q (have %s)", spec, strings.Join(PolicyNames(), ", "))
}
