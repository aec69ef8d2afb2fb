package engine

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"github.com/pombm/pombm/internal/flow"
	"github.com/pombm/pombm/internal/hst"
)

// Policy is the pluggable assignment rule: it decides which available
// worker serves each task, against the engine's sharded trie state. The
// decision methods are unexported — implementations need the engine's
// shard-locking internals, so policies live in this package and callers
// select one with Greedy, CapacityGreedy, BatchOptimal, or PolicyByName.
type Policy interface {
	// Name identifies the policy in stats, reports, and flags.
	Name() string
	// CapacityAware reports whether worker capacities above one are
	// honoured. The engine clamps every insert to capacity 1 otherwise, so
	// a non-capacity-aware policy always sees the paper's one-task-per-
	// worker pool.
	CapacityAware() bool

	assignOne(e *Engine, code hst.Code) (id, lcaLevel int, epoch int64, ok bool)
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

func (p *greedyPolicy) assignOne(e *Engine, code hst.Code) (int, int, int64, bool) {
	return e.greedyAssignOne(code)
}

func (p *greedyPolicy) assignWindow(e *Engine, codes []hst.Code) ([]int, []int) {
	return e.greedyAssignWindow(codes)
}

// DefaultBatchTopK is the candidate pool mined per task by the
// batch-optimal policy when no explicit k is configured.
const DefaultBatchTopK = 8

// parallelMineMin is the window size below which candidate mining stays
// sequential: fanning goroutines across shards only pays once a window
// carries enough probes to amortise the spawn cost. Measured crossover on
// a multi-core host: at 8 shards the fan-out overhead (~2 µs of spawns and
// a wait) is repaid somewhere between 8 and 32 probes, so 16 keeps the
// mid-size windows that used to serialise on the parallel path without
// ever paying fan-out on windows too small to amortise it. Mining also
// never fans out under GOMAXPROCS=1 — goroutines without a second core are
// pure scheduling overhead.
const parallelMineMin = 16

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
// regions, pad lists, the dedup table, the solver — lives in a pooled
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
// The window rule itself — how short tasks are padded, which candidates
// share a solver column, what an arc costs, what warm state carries over —
// is stated once, in padWindow and buildAndSolve. The in-process path mines
// into the scratch by arena ref and commits by ref; a cluster coordinator
// loads lists its nodes mined through SolveMined and commits remotely.
// Neither restates the rule.
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
	// engine every access is already ordered by the windows' all-shards lock
	// sessions. warmState pins the potentials to the state they were learned
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

func (p *batchOptimalPolicy) assignOne(e *Engine, code hst.Code) (int, int, int64, bool) {
	return e.greedyAssignOne(code)
}

func (p *batchOptimalPolicy) assignWindow(e *Engine, codes []hst.Code) ([]int, []int) {
	ids := make([]int, len(codes))
	lvls := make([]int, len(codes))
	for i := range ids {
		ids[i] = None
	}
	// A batch longer than BatchWindowSize is its windows back to back, each
	// under its own all-shards lock session — exactly the outcome of
	// submitting the chunks as separate batches, and what a cluster
	// coordinator does with the same batch. An empty batch is one (empty)
	// window.
	for lo := 0; lo == 0 || lo < len(codes); lo += BatchWindowSize {
		hi := min(lo+BatchWindowSize, len(codes))
		for !p.solveWindow(e, e.state.Load(), codes[lo:hi], ids[lo:hi], lvls[lo:hi]) {
		}
	}
	return ids, lvls
}

// refKey identifies one candidate across a window: the same worker mined
// by several tasks (or padded in from a foreign shard) must collapse to
// one solver column so its capacity is respected window-wide.
type refKey struct {
	shard int32
	node  int32
	id    int32
}

// shardWorker is a deduplicated candidate: the shard owning it plus its
// arena ref.
type shardWorker struct {
	shard int32
	ref   hst.CandidateRef
}

// windowScratch is the reusable arena behind one window solve. It lives in
// the policy's sync.Pool; every slice — the dedup table's slot slab
// included — grows to the policy's (window × k) envelope once and is then
// reused without being cleared. Nothing in it carries meaning from one
// window to the next: the warm-start seam is the policy's warm slab.
type windowScratch struct {
	valid      []int32            // positions of well-formed tasks in the window
	taskShard  []int32            // own shard per valid task
	shardOff   []int32            // per-shard offsets into shardTasks (len S+1)
	shardTasks []int32            // valid-task positions grouped by own shard
	cands      []hst.CandidateRef // per-task candidate regions, k slots each
	candSh     []int32            // source shard per candidate slot
	candCol    []int32            // solver column per candidate slot (set by buildAndSolve)
	candCnt    []int32            // live candidates per task
	padBuf     []hst.CandidateRef // per-shard smallest-k pad lists, k slots each
	padLen     []int32            // live pads per shard (-1 = not yet built)
	padHeads   []int32            // per-task pad merge cursors
	dedup      dedupTable         // candidate → solver worker column
	workers    []shardWorker      // unique candidates, first-seen order
	arcLvl     []int32            // LCA level per solver arc
	solver     *flow.Bipartite
	wg         sync.WaitGroup
}

// sizeFor grows the slabs the window kernel reads — per-task candidate
// regions and per-shard pad lists — to a window of nt tasks over S shards
// at pool k. Whoever loads the window (mineWindow, SolveMined) fills them.
func (ws *windowScratch) sizeFor(nt, S, k int) {
	ws.taskShard = growI32(ws.taskShard, nt)
	ws.cands = growRef(ws.cands, nt*k)
	ws.candSh = growI32(ws.candSh, nt*k)
	ws.candCol = growI32(ws.candCol, nt*k)
	ws.candCnt = growI32(ws.candCnt, nt)
	ws.padBuf = growRef(ws.padBuf, S*k)
	ws.padLen = growI32(ws.padLen, S)
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

// solveWindow serves one window under every shard lock (a window is a
// global decision; per-shard locking cannot express it). It reports false
// when an epoch swap won the lock race, in which case the caller retries
// against the new state. The body is a straight-line composition of the
// stage methods below.
func (p *batchOptimalPolicy) solveWindow(e *Engine, st *epochState, codes []hst.Code, ids, lvls []int) bool {
	st.lockAll()
	defer st.unlockAll()
	if e.state.Load() != st {
		return false
	}
	// Counted inside the lock session: whoever holds a shard lock reads a
	// count of whole windows, none in progress.
	e.windows.n.Add(1)

	ws := p.pool.Get().(*windowScratch)
	defer p.pool.Put(ws)
	if p.mineWindow(ws, st, codes, ids, lvls) == 0 {
		return true
	}
	p.padWindow(ws, st.layout, codes, st.smallestK)
	p.buildAndSolve(ws, st)
	p.commitWindow(ws, st, ids, lvls)
	return true
}

// mineWindow admits the window's well-formed tasks, groups them by their
// own shard, and mines each task's own-shard top-k candidates (one batch
// per shard, fanned across goroutines for large windows). It returns the
// number of tasks needing a solve — 0 when the window or the pool is
// empty. Caller holds every shard lock.
func (p *batchOptimalPolicy) mineWindow(ws *windowScratch, st *epochState, codes []hst.Code, ids, lvls []int) int {
	// Valid tasks only; malformed codes answer None without touching state.
	ws.valid = ws.valid[:0]
	for i, code := range codes {
		ids[i], lvls[i] = None, 0
		if st.tree.CheckCode(code) == nil {
			ws.valid = append(ws.valid, int32(i))
		}
	}
	pool := 0
	for i := range st.shards {
		pool += st.shards[i].index.Len()
	}
	nt, S := len(ws.valid), len(st.shards)
	if nt == 0 || pool == 0 {
		return 0
	}
	k := p.k
	ws.sizeFor(nt, S, k)
	for s := range ws.padLen {
		ws.padLen[s] = -1 // unbuilt: padWindow fills lists on first need
	}

	// Group tasks by their own shard (every worker sharing the task's top
	// branch lives there), so each shard's probes run as one batch.
	ws.shardOff = growI32(ws.shardOff, S+1)
	ws.shardTasks = growI32(ws.shardTasks, nt)
	for i := range ws.shardOff {
		ws.shardOff[i] = 0
	}
	for ti, i := range ws.valid {
		s := int32(st.layout.ShardIdx(codes[i]))
		ws.taskShard[ti] = s
		ws.shardOff[s+1]++
	}
	homes := 0 // shards at least one task is homed on
	for s := 0; s < S; s++ {
		if ws.shardOff[s+1] > 0 {
			homes++
		}
		ws.shardOff[s+1] += ws.shardOff[s]
	}
	fill := ws.shardOff // reuse as cursors; restore below
	for ti := range ws.taskShard {
		s := ws.taskShard[ti]
		ws.shardTasks[fill[s]] = int32(ti)
		fill[s]++
	}
	for s := S; s > 0; s-- {
		ws.shardOff[s] = ws.shardOff[s-1]
	}
	ws.shardOff[0] = 0

	// Mine each task's own-shard top-k, one batch per shard. The probes
	// are independent across shards — each touches only its shard's index
	// (whose scratch buffers make NearestKRef exclusive per shard), and
	// every shard lock is already held — so large windows fan out across
	// goroutines, one per shard with tasks. A window homed on a single
	// shard (a tree whose top level never splits homes every task on shard
	// 0) has nothing to overlap: it mines inline instead of parking the
	// caller behind one goroutine doing all the work.
	mineShard := func(s int) {
		for _, ti := range ws.shardTasks[ws.shardOff[s]:ws.shardOff[s+1]] {
			code := codes[ws.valid[ti]]
			region := ws.cands[int(ti)*k : int(ti)*k : (int(ti)+1)*k]
			got := st.shards[s].index.NearestKRef(code, k, region)
			ws.candCnt[ti] = int32(len(got))
			for j := range got {
				ws.candSh[int(ti)*k+j] = int32(s)
			}
		}
	}
	if nt >= parallelMineMin && homes > 1 && runtime.GOMAXPROCS(0) > 1 {
		for s := 0; s < S; s++ {
			if ws.shardOff[s] == ws.shardOff[s+1] {
				continue
			}
			ws.wg.Add(1)
			go func(s int) {
				defer ws.wg.Done()
				mineShard(s)
			}(s)
		}
		ws.wg.Wait()
	} else {
		for s := 0; s < S; s++ {
			mineShard(s)
		}
	}
	return nt
}

// smallestK is the in-process pad source: shard s's smallest-k list, stamped
// at the root level, read off the live trie.
func (st *epochState) smallestK(s, k int, out []hst.CandidateRef) []hst.CandidateRef {
	return st.shards[s].index.SmallestKRef(k, st.layout.Depth, out)
}

// padWindow tops up tasks whose own shard mined fewer than k candidates
// with cross-shard pads. It is the first stage of the window kernel and
// reads only the scratch and the shard geometry: pad lists still unbuilt
// (padLen < 0) are pulled from lazyPad on first need, which the in-process
// path points at the live tries — so it runs under every shard lock — and
// a coordinator never needs, having loaded every list its nodes mined.
func (p *batchOptimalPolicy) padWindow(ws *windowScratch, l Layout, codes []hst.Code,
	lazyPad func(s, k int, out []hst.CandidateRef) []hst.CandidateRef) {
	nt, S, k := len(ws.valid), l.Shards, p.k

	// Pad tasks whose own shard ran short with the smallest-id workers
	// from the other shards. Under plain sharding every foreign worker sits
	// at the maximal LCA level and they are all equidistant; under
	// sub-sharding the sibling sub-shards of the task's top branch are one
	// level closer (depth−1: they hold exactly the workers sharing the
	// task's first digit), so the merge ranks pads by (level, id), sibling
	// groups first, and restamps their level. Instead of snapshotting whole
	// shards, each foreign shard contributes a keep-k list (a task needs at
	// most k pads even if one shard supplies them all), built at most once
	// per window and merge-scanned per task — no padded rows ever
	// materialise.
	if S > 1 {
		ws.padHeads = growI32(ws.padHeads, S)
		for ti := 0; ti < nt; ti++ {
			need := k - int(ws.candCnt[ti])
			if need <= 0 {
				continue
			}
			own := ws.taskShard[ti]
			q0 := -1
			if l.Sub > 1 {
				q0 = int(codes[ws.valid[ti]][0])
			}
			padLvl := func(s int) int32 {
				if q0 >= 0 && s%l.Degree == q0 {
					return int32(l.Depth - 1)
				}
				return int32(l.Depth)
			}
			for s := 0; s < S; s++ {
				ws.padHeads[s] = 0
				if ws.padLen[s] < 0 && int32(s) != own {
					region := ws.padBuf[s*k : s*k : (s+1)*k]
					ws.padLen[s] = int32(len(lazyPad(s, k, region)))
				}
			}
			region := ws.cands[int(ti)*k : int(ti)*k+int(ws.candCnt[ti]) : (int(ti)+1)*k]
			for ; need > 0; need-- {
				best := -1
				for s := 0; s < S; s++ {
					if int32(s) == own || ws.padHeads[s] >= ws.padLen[s] {
						continue
					}
					if best < 0 {
						best = s
						continue
					}
					ls, lb := padLvl(s), padLvl(best)
					if ls < lb || (ls == lb &&
						ws.padBuf[s*k+int(ws.padHeads[s])].ID < ws.padBuf[best*k+int(ws.padHeads[best])].ID) {
						best = s
					}
				}
				if best < 0 {
					break
				}
				c := ws.padBuf[best*k+int(ws.padHeads[best])]
				c.Level = padLvl(best)
				ws.candSh[int(ti)*k+len(region)] = int32(best)
				region = append(region, c)
				ws.padHeads[best]++
			}
			ws.candCnt[ti] = int32(len(region))
		}
	}
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
			key := refKey{shard: ws.candSh[ti*k+j], node: c.Node, id: c.ID}
			col, fresh := ws.dedup.column(key, int32(len(ws.workers)))
			if fresh {
				ws.workers = append(ws.workers, shardWorker{shard: key.shard, ref: c})
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
	for w, sw := range ws.workers {
		sol.SetWorker(w, int(sw.ref.Cap), p.warm.get(sw.ref.ID))
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
		for w, sw := range ws.workers {
			p.warm.set(sw.ref.ID, sol.WorkerPot(w))
		}
	}
	p.warmMu.Unlock()
}

// SolveMined is the window kernel's entry for a cluster coordinator, whose
// candidates were mined on other processes: it runs pad, dedup, build,
// solve and bank-potentials over code-addressed lists and returns each
// task's matched worker — its id and leaf code for the remote commit and
// the LCA level of the match, ID None for an unmatched task. codes are the
// window's well-formed tasks in order, own[i] task i's own-shard nearest-k
// list, pads[s] shard s's smallest-k list (len(pads) == l.Shards). Lists
// must already be validated: at most TopK entries each, ids and capacities
// within int32, levels within [0, l.Depth]. state is the warm-start token
// (see warmState). Together with TopK — the pool every node mines with —
// it is all a coordinator needs of the policy.
func (p *batchOptimalPolicy) SolveMined(state any, l Layout, codes []hst.Code, own, pads [][]hst.Candidate) []hst.Candidate {
	ws := p.pool.Get().(*windowScratch)
	defer p.pool.Put(ws)
	nt, S, k := len(codes), l.Shards, p.k

	// A worker is one (leaf, id) pair however many lists carry it; its
	// position in the table of distinct workers stands in for the arena
	// node of a locally mined ref, so the kernel's column dedup is exactly
	// the in-process one.
	var table []hst.Candidate
	seen := map[hst.Candidate]int32{}
	ref := func(c hst.Candidate) hst.CandidateRef {
		key := hst.Candidate{ID: c.ID, Code: c.Code}
		n, ok := seen[key]
		if !ok {
			n = int32(len(table))
			seen[key] = n
			table = append(table, c)
		}
		return hst.CandidateRef{ID: int32(c.ID), Node: n, Level: int32(c.Level), Cap: int32(c.Cap)}
	}
	ws.valid = ws.valid[:0]
	ws.sizeFor(nt, S, k)
	for ti, code := range codes {
		s := int32(l.ShardIdx(code))
		ws.valid = append(ws.valid, int32(ti))
		ws.taskShard[ti] = s
		ws.candCnt[ti] = int32(len(own[ti]))
		for j, c := range own[ti] {
			ws.cands[ti*k+j], ws.candSh[ti*k+j] = ref(c), s
		}
	}
	for s := range ws.padLen {
		ws.padLen[s] = int32(len(pads[s]))
		for h, c := range pads[s] {
			ws.padBuf[s*k+h] = ref(c)
		}
	}
	p.padWindow(ws, l, codes, nil)
	p.buildAndSolve(ws, state)

	matched := make([]hst.Candidate, nt)
	for ti := range matched {
		matched[ti].ID = None
		if a := ws.solver.MatchedArc(ti); a >= 0 {
			matched[ti] = table[ws.workers[ws.solver.MatchedWorker(ti)].ref.Node]
			matched[ti].Level = int(ws.arcLvl[a])
		}
	}
	return matched
}

// commitWindow consumes one capacity unit per matched arc and stamps the
// window's answers. Caller holds every shard lock and has held them since
// the mine that produced these refs, so a missing candidate is a bug, not
// a race.
func (p *batchOptimalPolicy) commitWindow(ws *windowScratch, st *epochState, ids, lvls []int) {
	sol := ws.solver
	for ti, i := range ws.valid {
		a := sol.MatchedArc(ti)
		if a < 0 {
			continue
		}
		sw := ws.workers[sol.MatchedWorker(ti)]
		if !st.shards[sw.shard].index.ConsumeRef(sw.ref) {
			// Unreachable: the candidate was mined under the same locks
			// the commit holds. Surfacing beats silently double-booking.
			panic(fmt.Sprintf("engine: batch-optimal commit lost candidate %d", sw.ref.ID))
		}
		st.shards[sw.shard].assigns++
		ids[i], lvls[i] = int(sw.ref.ID), int(ws.arcLvl[a])
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
