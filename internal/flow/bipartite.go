// Package flow implements the repository's one optimal-assignment solver:
// Bipartite, a warm-startable min-cost maximum-cardinality assignment of
// tasks to capacitated workers over a candidate arc list. The engine's
// batch-optimal policy solves each window with it over a few mined
// candidates per task; internal/match builds the offline optimum (Optimal,
// OptimalCapacitated) on it over the complete task × worker arc set.
package flow

import (
	"fmt"
	"math"
)

// nilEdge terminates the per-worker matched-task lists and marks a task
// that was never matched.
const nilEdge = int32(-1)

// Bipartite solves the engine's per-window restricted assignment problem:
// nTasks tasks, each carrying a small candidate arc list, against nWorkers
// capacitated workers. It computes a maximum-cardinality matching of
// minimum total cost within the candidate graph — the min-cost flow optimum
// of the equivalent source/sink network — via successive shortest
// augmenting paths over reduced costs (Dijkstra with Johnson potentials),
// which visits O(arcs near the path) nodes per task in the steady state
// instead of relaxing the whole graph per augmentation.
//
// Internally the graph is completed with two implicit nodes that make
// per-task augmentation globally optimal:
//
//   - a virtual worker every task can reach at cost M (one more than the
//     sum of all real arc costs), so every augmentation succeeds and a
//     task "matched" virtually is simply unmatched. Because M dwarfs any
//     real cost difference, minimizing total cost first maximizes real
//     cardinality — and a later task can reroute an earlier one onto the
//     virtual worker, which is exactly the rematch that plain sequential
//     augmentation misses when a task must go unmatched.
//   - a super-sink behind all workers, reached at cost 0 from any worker
//     with spare capacity. Dijkstra stops when the sink pops, which is
//     correct even when warm-started worker potentials are unequal;
//     stopping at the first free worker instead would bias the search
//     toward high-potential workers rather than the cheapest real path.
//
// The struct is an arena with a warm-start seam. Reset prepares the next
// window reusing every slab, and SetWorker accepts a carried-over
// potential for each worker. Potentials are duals, not constraints: at
// window start no arc carries flow, so any potential assignment is valid
// and cannot change the optimum — a warm value merely starts the price of
// a worker where the previous window left it, which makes the first
// Dijkstra pop of a typical task land directly on its final worker. Read
// the updated potentials back with WorkerPot after Run.
//
// Determinism: equal-distance Dijkstra fronts break ties toward the
// smaller node index (tasks in submission order before workers in
// first-seen order), so a window's outcome is a pure function of its
// input and the seeded potentials. Warm values never change the matching's
// cardinality or total cost — only which of several equal-cost optima is
// picked — so replaying the same window sequence reproduces the same
// assignments bit for bit.
type Bipartite struct {
	nTasks   int
	nWorkers int

	// Candidate arcs, grouped per task in insertion order.
	arcTask  []int32
	arcW     []int32
	arcCost  []float64
	taskArcs []int32 // len nTasks+1: task t's arcs are [taskArcs[t], taskArcs[t+1])

	// Worker state; slot nWorkers is the virtual unmatched-absorber.
	wcap []int32   // remaining window capacity per worker
	wpot []float64 // worker potentials (duals), warm-startable
	tpot []float64 // task potentials, derived per window

	sinkPot float64 // super-sink potential
	bigM    float64 // virtual arc cost, 1 + sum of all real arc costs

	matchArc []int32 // per task: matched arc id, virtual sentinel ≤ -2, or nilEdge
	wHead    []int32 // per worker (incl. virtual): head of its matched-task list
	tNext    []int32 // per task: next task matched to the same worker

	// Dijkstra scratch. Node v < nTasks is task v; node nTasks+w is worker
	// w (w == nWorkers being the virtual worker); the last node is the
	// super-sink. seen stamps avoid clearing dist between augmentations.
	dist    []float64
	prevArc []int32
	seen    []int32
	done    []int32
	reach   []int32 // nodes finalized this augmentation, for the dual update
	heap    []heapEntry
	stamp   int32
}

type heapEntry struct {
	dist float64
	node int32
}

// virtArc encodes "task t is matched to the virtual worker" in matchArc:
// values ≤ -2 are virtual, distinct from nilEdge (-1, never matched).
func virtArc(t int32) int32 { return -2 - t }

// NewBipartite returns an empty solver; Reset sizes it.
func NewBipartite() *Bipartite { return &Bipartite{} }

// Reset prepares the solver for a window of nTasks tasks over nWorkers
// workers, reusing every internal slab. Workers must then be declared with
// SetWorker and arcs added task by task with AddArc.
func (b *Bipartite) Reset(nTasks, nWorkers int) {
	b.nTasks, b.nWorkers = nTasks, nWorkers
	nw := nWorkers + 1         // +1: virtual worker slot
	n := nTasks + nWorkers + 2 // +2: virtual worker and super-sink nodes
	if cap(b.wcap) < nw {
		b.wcap = make([]int32, nw)
		b.wpot = make([]float64, nw)
		b.wHead = make([]int32, nw)
	}
	b.wcap = b.wcap[:nw]
	b.wpot = b.wpot[:nw]
	b.wHead = b.wHead[:nw]
	for i := range b.wHead {
		b.wHead[i] = nilEdge
	}
	if cap(b.matchArc) < nTasks {
		b.matchArc = make([]int32, nTasks)
		b.tNext = make([]int32, nTasks)
		b.tpot = make([]float64, nTasks)
	}
	b.matchArc = b.matchArc[:nTasks]
	b.tNext = b.tNext[:nTasks]
	b.tpot = b.tpot[:nTasks]
	for i := range b.matchArc {
		b.matchArc[i] = nilEdge
	}
	if cap(b.dist) < n {
		b.dist = make([]float64, n)
		b.prevArc = make([]int32, n)
		b.seen = make([]int32, n)
		b.done = make([]int32, n)
	}
	b.dist = b.dist[:n]
	b.prevArc = b.prevArc[:n]
	b.seen = b.seen[:n]
	b.done = b.done[:n]
	if b.stamp == 0 { // fresh slabs: stamps start above the zero value
		for i := range b.seen {
			b.seen[i] = 0
			b.done[i] = 0
		}
	}
	b.arcTask = b.arcTask[:0]
	b.arcW = b.arcW[:0]
	b.arcCost = b.arcCost[:0]
	b.taskArcs = append(b.taskArcs[:0], 0)
}

// SetWorker declares worker w's capacity for this window and seeds its
// potential (0 for a cold start, the previous window's closing potential
// for a warm one).
func (b *Bipartite) SetWorker(w, capacity int, pot float64) {
	b.wcap[w] = int32(capacity)
	b.wpot[w] = pot
}

// AddArc adds a candidate arc from task t to worker w at the given cost.
// Arcs must be added grouped by task, in task order; costs must be finite
// and non-negative, and endpoints in range.
func (b *Bipartite) AddArc(t, w int, cost float64) error {
	if t < 0 || t >= b.nTasks || w < 0 || w >= b.nWorkers {
		return fmt.Errorf("flow: arc task %d → worker %d outside the %d×%d window", t, w, b.nTasks, b.nWorkers)
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) || cost < 0 {
		return fmt.Errorf("flow: arc task %d → worker %d has invalid cost %v", t, w, cost)
	}
	if cur := len(b.taskArcs) - 2; t < cur {
		return fmt.Errorf("flow: arcs for task %d added after task %d", t, cur)
	}
	for len(b.taskArcs) < t+2 {
		b.taskArcs = append(b.taskArcs, int32(len(b.arcW)))
	}
	b.arcTask = append(b.arcTask, int32(t))
	b.arcW = append(b.arcW, int32(w))
	b.arcCost = append(b.arcCost, cost)
	b.taskArcs[t+1] = int32(len(b.arcW))
	return nil
}

// Run augments every task in order and returns the number matched to a
// real worker. The result is a maximum-cardinality matching of minimum
// total cost within the candidate graph.
func (b *Bipartite) Run() int {
	for len(b.taskArcs) <= b.nTasks {
		b.taskArcs = append(b.taskArcs, int32(len(b.arcW)))
	}
	b.bigM = 1
	for _, c := range b.arcCost {
		b.bigM += c
	}
	virt := b.nWorkers
	b.wcap[virt] = int32(b.nTasks)
	b.wpot[virt] = 0
	// The sink starts below every worker so each forward worker→sink arc
	// carries a non-negative reduced cost even under warm potentials.
	b.sinkPot = 0
	for _, p := range b.wpot[:virt] {
		if p < b.sinkPot {
			b.sinkPot = p
		}
	}
	for t := 0; t < b.nTasks; t++ {
		b.augment(int32(t))
	}
	matched := 0
	for _, a := range b.matchArc {
		if a >= 0 {
			matched++
		}
	}
	return matched
}

// MatchedArc returns the arc id (AddArc insertion order, 0-based) that
// task t is matched through, or -1 when the task is unmatched. Valid
// after Run.
func (b *Bipartite) MatchedArc(t int) int {
	if a := b.matchArc[t]; a >= 0 {
		return int(a)
	}
	return -1
}

// MatchedWorker returns the worker matched to task t, or -1.
func (b *Bipartite) MatchedWorker(t int) int {
	if a := b.matchArc[t]; a >= 0 {
		return int(b.arcW[a])
	}
	return -1
}

// WorkerPot returns worker w's closing potential, for carrying into the
// next window's SetWorker.
func (b *Bipartite) WorkerPot(w int) float64 { return b.wpot[w] }

// MatchedCost returns the total cost of the matching. Valid after Run.
func (b *Bipartite) MatchedCost() float64 {
	var total float64
	for _, a := range b.matchArc {
		if a >= 0 {
			total += b.arcCost[a]
		}
	}
	return total
}

// arcWorkerOf resolves an arc id — real or virtual sentinel — to its
// internal worker index.
func (b *Bipartite) arcWorkerOf(a int32) int32 {
	if a >= 0 {
		return b.arcW[a]
	}
	return int32(b.nWorkers)
}

// arcCostOf resolves an arc id — real or virtual sentinel — to its cost.
func (b *Bipartite) arcCostOf(a int32) float64 {
	if a >= 0 {
		return b.arcCost[a]
	}
	return b.bigM
}

// augment runs one Dijkstra over reduced costs from task t0, stopping
// when the super-sink is finalized, then updates the duals and flips the
// augmenting path. The virtual worker guarantees a path exists. Reduced
// costs stay non-negative by the standard successive-shortest-path
// invariant. Every cost in an engine window is an exact small integer, so
// there the arithmetic is exact; internal/match feeds it float distances,
// where rounding in the potentials can only reorder near-equal paths — its
// brute-force tests hold the total to within 1e-9 of the optimum.
func (b *Bipartite) augment(t0 int32) {
	nT := int32(b.nTasks)
	virt := int32(b.nWorkers)
	sink := nT + virt + 1
	// Task potential: the largest value keeping every outgoing arc's
	// reduced cost non-negative (virtual arc included), so arbitrary warm
	// worker potentials are always valid and the cheapest arc starts tight.
	pot := b.wpot[virt] - b.bigM
	for a := b.taskArcs[t0]; a < b.taskArcs[t0+1]; a++ {
		if p := b.wpot[b.arcW[a]] - b.arcCost[a]; p > pot {
			pot = p
		}
	}
	b.tpot[t0] = pot

	b.stamp++
	stamp := b.stamp
	b.heap = b.heap[:0]
	b.reach = b.reach[:0]
	b.setDist(t0, 0, nilEdge, stamp)
	var sinkD float64
	for len(b.heap) > 0 {
		e := b.popHeap()
		v := e.node
		if b.done[v] == stamp {
			continue
		}
		b.done[v] = stamp
		b.dist[v] = e.dist
		b.reach = append(b.reach, v)
		if v == sink {
			sinkD = e.dist
			break
		}
		if v >= nT {
			w := v - nT
			if b.wcap[w] > 0 && b.done[sink] != stamp {
				// prevArc at the sink records the entering worker index —
				// the only node whose predecessor is not an arc.
				b.setDist(sink, e.dist+b.wpot[w]-b.sinkPot, w, stamp)
			}
			// Cross back over each matched task's flow arc.
			for t := b.wHead[w]; t != nilEdge; t = b.tNext[t] {
				if b.done[t] == stamp {
					continue
				}
				a := b.matchArc[t]
				rc := -b.arcCostOf(a) + b.wpot[w] - b.tpot[t]
				b.setDist(t, e.dist+rc, a, stamp)
			}
			continue
		}
		// Task node: forward over its non-flow arcs, virtual included.
		for a, hi := b.taskArcs[v], b.taskArcs[v+1]; a < hi; a++ {
			if a == b.matchArc[v] {
				continue
			}
			w := b.arcW[a]
			wn := nT + w
			if b.done[wn] == stamp {
				continue
			}
			rc := b.arcCost[a] + b.tpot[v] - b.wpot[w]
			b.setDist(wn, e.dist+rc, a, stamp)
		}
		if b.matchArc[v] >= nilEdge && b.done[nT+virt] != stamp {
			rc := b.bigM + b.tpot[v] - b.wpot[virt]
			b.setDist(nT+virt, e.dist+rc, virtArc(v), stamp)
		}
	}
	// Dual update: finalized nodes move by dist − D (a uniform −D shift of
	// the textbook π += min(dist, D), which leaves reduced costs invariant
	// for untouched nodes), making the augmenting path tight.
	for _, v := range b.reach {
		if v == sink {
			continue
		}
		if v < nT {
			b.tpot[v] += b.dist[v] - sinkD
		} else {
			b.wpot[v-nT] += b.dist[v] - sinkD
		}
	}
	// Flip the path: the sink's predecessor is the worker absorbing the
	// new unit; walk back over prevArc from there, rematching each task.
	w := b.prevArc[sink]
	b.wcap[w]--
	v := nT + w
	for {
		a := b.prevArc[v]
		t := -2 - a
		if a >= 0 {
			t = b.arcTask[a]
		}
		old := b.matchArc[t]
		// Detach before attach: attach overwrites tNext[t], which detach
		// still needs to unlink t from its old worker's list.
		if old != nilEdge {
			b.detach(b.arcWorkerOf(old), t)
		}
		b.matchArc[t] = a
		b.attach(b.arcWorkerOf(a), t)
		if t == t0 {
			break
		}
		v = nT + b.arcWorkerOf(old)
	}
}

// setDist relaxes node v to distance d through arc a. Finalized nodes are
// never re-relaxed: their prevArc is part of the committed shortest-path
// tree the flip walks afterwards.
func (b *Bipartite) setDist(v int32, d float64, a int32, stamp int32) {
	if b.done[v] == stamp {
		return
	}
	if b.seen[v] == stamp && d >= b.dist[v] {
		return
	}
	b.seen[v] = stamp
	b.dist[v] = d
	b.prevArc[v] = a
	b.heap = append(b.heap, heapEntry{dist: d, node: v})
	b.up(len(b.heap) - 1)
}

// attach links task t into worker w's matched list.
func (b *Bipartite) attach(w, t int32) {
	b.tNext[t] = b.wHead[w]
	b.wHead[w] = t
}

// detach unlinks task t from worker w's matched list.
func (b *Bipartite) detach(w, t int32) {
	if b.wHead[w] == t {
		b.wHead[w] = b.tNext[t]
		return
	}
	for p := b.wHead[w]; p != nilEdge; p = b.tNext[p] {
		if b.tNext[p] == t {
			b.tNext[p] = b.tNext[t]
			return
		}
	}
}

// heapLess orders by (dist, node): the smaller node index wins ties, which
// pins the solver's equal-cost decisions deterministically.
func (b *Bipartite) heapLess(i, j int) bool {
	if b.heap[i].dist != b.heap[j].dist {
		return b.heap[i].dist < b.heap[j].dist
	}
	return b.heap[i].node < b.heap[j].node
}

func (b *Bipartite) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !b.heapLess(i, p) {
			return
		}
		b.heap[i], b.heap[p] = b.heap[p], b.heap[i]
		i = p
	}
}

func (b *Bipartite) popHeap() heapEntry {
	top := b.heap[0]
	n := len(b.heap) - 1
	b.heap[0] = b.heap[n]
	b.heap = b.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && b.heapLess(l, s) {
			s = l
		}
		if r < n && b.heapLess(r, s) {
			s = r
		}
		if s == i {
			return top
		}
		b.heap[i], b.heap[s] = b.heap[s], b.heap[i]
		i = s
	}
}
