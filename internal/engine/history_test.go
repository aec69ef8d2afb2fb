package engine_test

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/pombm/pombm/internal/cluster"
	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

// This file checks the nearest rule under concurrency. n goroutines drive a
// core — an engine, or a coordinator over three in-process nodes — with
// inserts, assignments, unit returns, relocations (a return at a fresh leaf)
// and removals; a recorder logs each op's start, end and answer off one
// monotonic counter; and an offline checker decides every assignment
// without search:
//
//   - a worker is definitely available throughout an assignment's interval
//     [s, e] when the units put in by adds that completed before s exceed
//     the units taken by every other take that started before e, and no
//     relocation of it overlaps [s, e] — no linearisation can have emptied
//     it inside the interval, or moved it;
//   - no such worker may sit below the answer's LCA level, or at that level
//     with a smaller id, and an assignment that found nobody had none;
//   - a worker is never assigned more units than could have reached the
//     pool before the assignment ended: a unit goes out at most once
//     between returns.
//
// Rotations are not driven here, and no batch is: each op is one of the
// five single-worker calls every core answers alike.

// histCore is the core surface the drivers call: *engine.Engine and a
// coordinator's platform.Core both have it.
type histCore interface {
	Assign(code hst.Code) (id, lcaLevel int, ok bool)
	InsertCapEpoch(code hst.Code, id, capacity int, epoch int64) error
	AddCapacityEpoch(code hst.Code, id int, epoch int64) error
	RemoveUnits(code hst.Code, id int) (units int, ok bool)
	RelocateEpoch(from, to hst.Code, id, extra int, epoch int64) (pooled int, err error)
}

type histKind uint8

const (
	histInsert histKind = iota
	histReturn
	histRemove
	histAssign
	histRelocate
)

// histOp is one recorded call: its interval on the recorder's clock, the
// worker it names (an assignment: the one it answered, or engine.None) and
// the units it put in or took out of the pool (a relocation: the one it
// returned).
type histOp struct {
	kind       histKind
	start, end int64
	worker     int
	units      int
	task       hst.Code // an assignment's task
	level      int      // an assignment's answered level
	to         hst.Code // the leaf a relocation left its worker at
}

// histShape is one run's workload: goroutines × workers each owns (owned
// at fixed leaves, movers relocated), the capacity an insert asks for, and
// ops per goroutine.
type histShape struct {
	goroutines, owned, movers, capacity, steps int
}

func (sh histShape) workers() int { return sh.goroutines * (sh.owned + sh.movers) }

// runHistory drives core with shape's workload from seed and returns every
// goroutine's log. Goroutine g owns the ids g·owned … (g+1)·owned−1, which
// sit at fixed leaves (codes[id]) and which only it inserts and removes, and
// returns a unit of any worker it was assigned. Movers — the movers ids
// from goroutines·owned + g·movers on — start at codes[id] once and never
// leave; a goroutine returns a mover's unit in place or, half the time,
// relocates the mover to a fresh leaf with it, as a platform Release with a
// fresh code does. A mover's returns and relocations are serialised, as the
// platform's lock serialises a worker's, so its leaf is one at a time. Each
// call yields once between its start tick and the call, so the goroutines'
// intervals overlap even on one core.
func runHistory(core histCore, tree *hst.Tree, codes []hst.Code, sh histShape, seed uint64) [][]histOp {
	var clock atomic.Int64
	logs := make([][]histOp, sh.goroutines)
	movers := make([]struct {
		sync.Mutex
		at hst.Code
	}, sh.workers())
	var wg sync.WaitGroup
	for g := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := rng.New(seed).DeriveN("history", g)
			record := func(op histOp, call func(*histOp)) {
				op.start = clock.Add(1)
				runtime.Gosched()
				call(&op)
				op.end = clock.Add(1)
				logs[g] = append(logs[g], op)
			}
			insert := func(id int) {
				record(histOp{kind: histInsert, worker: id}, func(op *histOp) {
					if core.InsertCapEpoch(codes[id], id, sh.capacity, 0) == nil {
						op.units = sh.capacity
					}
				})
			}
			first := g * sh.owned
			for id := first; id < first+sh.owned; id++ {
				insert(id)
			}
			for id := sh.goroutines*sh.owned + g*sh.movers; id < sh.goroutines*sh.owned+(g+1)*sh.movers; id++ {
				movers[id].at = codes[id]
				insert(id)
			}
			var held []int // workers this goroutine was assigned and has not returned
			for step := 0; step < sh.steps; step++ {
				switch r := src.Intn(10); {
				case r < 5:
					task := tree.CodeOf(src.Intn(tree.NumPoints()))
					record(histOp{kind: histAssign, task: task}, func(op *histOp) {
						var ok bool
						if op.worker, op.level, ok = core.Assign(task); ok {
							op.units = 1
							held = append(held, op.worker)
						} else {
							op.worker = engine.None
						}
					})
				case r < 7:
					if len(held) == 0 {
						continue
					}
					j := src.Intn(len(held))
					id := held[j]
					held = append(held[:j], held[j+1:]...)
					if id < sh.goroutines*sh.owned {
						record(histOp{kind: histReturn, worker: id}, func(op *histOp) {
							if core.AddCapacityEpoch(codes[id], id, 0) == nil {
								op.units = 1
							}
						})
						break
					}
					m := &movers[id]
					m.Lock()
					if src.Intn(2) == 0 {
						record(histOp{kind: histReturn, worker: id}, func(op *histOp) {
							if core.AddCapacityEpoch(m.at, id, 0) == nil {
								op.units = 1
							}
						})
					} else {
						to := tree.CodeOf(src.Intn(tree.NumPoints()))
						record(histOp{kind: histRelocate, worker: id, to: m.at}, func(op *histOp) {
							if _, err := core.RelocateEpoch(m.at, to, id, 1, 0); err == nil {
								op.units, op.to, m.at = 1, to, to
							}
						})
					}
					m.Unlock()
				case r < 8:
					id := first + src.Intn(sh.owned)
					record(histOp{kind: histRemove, worker: id}, func(op *histOp) {
						op.units, _ = core.RemoveUnits(codes[id], id)
					})
				default:
					insert(first + src.Intn(sh.owned))
				}
			}
		}()
	}
	wg.Wait()
	return logs
}

// checkHistory returns the first few violations of the rules above in logs.
func checkHistory(tree *hst.Tree, codes []hst.Code, logs [][]histOp) []string {
	perWorker := make([][]histOp, len(codes)) // adds and takes, by worker
	relocs := make([][]histOp, len(codes))    // by worker, in order
	var assigns []histOp
	for _, log := range logs {
		for _, op := range log {
			switch op.kind {
			case histAssign:
				assigns = append(assigns, op)
			case histRelocate:
				relocs[op.worker] = append(relocs[op.worker], op)
			}
			if op.worker != engine.None {
				perWorker[op.worker] = append(perWorker[op.worker], op)
			}
		}
	}
	for _, rs := range relocs {
		slices.SortFunc(rs, func(a, b histOp) int { return cmp.Compare(a.start, b.start) })
	}
	// leaves returns the leaves worker w can have sat at during [s, e] — the
	// one at s last — and whether it sat at that one throughout.
	leaves := func(w int, s, e int64) (at []hst.Code, still bool) {
		cur := codes[w]
		for _, r := range relocs[w] {
			switch {
			case r.end < s:
				cur = r.to
			case r.start < e:
				at = append(at, r.to)
			}
		}
		return append(at, cur), len(at) == 0
	}
	adds := func(k histKind) bool { return k == histInsert || k == histReturn || k == histRelocate }
	var bad []string
	report := func(format string, args ...any) {
		if len(bad) < 8 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	for _, a := range assigns {
		if a.worker != engine.None {
			at, _ := leaves(a.worker, a.start, a.end)
			if !slices.ContainsFunc(at, func(c hst.Code) bool { return tree.LCALevel(c, a.task) == a.level }) {
				report("assignment [%d,%d] answered worker %d at level %d, which sits at level %d", a.start, a.end, a.worker, a.level,
					tree.LCALevel(at[len(at)-1], a.task))
			}
			// Units that certainly left before this one, and units that can
			// have arrived before it ended.
			taken, arrived := 1, 0
			for _, op := range perWorker[a.worker] {
				switch {
				case adds(op.kind):
					if op.start < a.end {
						arrived += op.units
					}
				case op.end < a.start:
					taken += op.units
				}
			}
			if taken > arrived {
				report("assignment [%d,%d] took a unit of worker %d that was already out: %d taken by its end, at most %d arrived",
					a.start, a.end, a.worker, taken, arrived)
			}
		}
		for w, ops := range perWorker {
			if w == a.worker {
				continue
			}
			surely := 0
			for _, op := range ops {
				switch {
				case adds(op.kind):
					if op.end < a.start {
						surely += op.units
					}
				case op.start < a.end:
					surely -= op.units
				}
			}
			at, still := leaves(w, a.start, a.end)
			if surely < 1 || !still {
				continue
			}
			lvl := tree.LCALevel(at[0], a.task)
			switch {
			case a.worker == engine.None:
				report("assignment [%d,%d] found no worker, but worker %d (level %d) was available throughout", a.start, a.end, w, lvl)
			case lvl < a.level || lvl == a.level && w < a.worker:
				report("assignment [%d,%d] answered worker %d at level %d, but worker %d at level %d was available throughout",
					a.start, a.end, a.worker, a.level, w, lvl)
			}
		}
	}
	return bad
}

// historyTree is the 8×8 tree the cluster tests call seed 9: its real
// leaves have two first digits, so a three-node coordinator puts workers on
// two nodes.
func historyTree(t *testing.T) *hst.Tree {
	t.Helper()
	grid, err := geo.NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(100, 100)), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hst.Build(grid.Points(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// historyCodes places shape's workers on random real leaves.
func historyCodes(tree *hst.Tree, sh histShape, seed uint64) []hst.Code {
	src := rng.New(seed).Derive("leaves")
	codes := make([]hst.Code, sh.workers())
	for i := range codes {
		codes[i] = tree.CodeOf(src.Intn(tree.NumPoints()))
	}
	return codes
}

var historyShape = histShape{goroutines: 4, owned: 12, movers: 12, steps: 300}

func checkRuns(t *testing.T, tree *hst.Tree, sh histShape, core func(t *testing.T, codes []hst.Code) histCore) {
	for _, seed := range []uint64{1, 2, 3} {
		codes := historyCodes(tree, sh, seed)
		logs := runHistory(core(t, codes), tree, codes, sh, seed)
		for _, v := range checkHistory(tree, codes, logs) {
			t.Errorf("seed %d: %s", seed, v)
		}
		moved := 0
		for _, log := range logs {
			for _, op := range log {
				if op.kind == histRelocate && op.units > 0 {
					moved++
				}
			}
		}
		if moved < 10 {
			t.Errorf("seed %d: %d relocations went through: the run checks too few", seed, moved)
		}
	}
}

func historyEngine(policy engine.Policy) func(t *testing.T, codes []hst.Code) histCore {
	return func(t *testing.T, _ []hst.Code) histCore {
		tree := historyTree(t)
		e, err := engine.NewWithOptions(tree, 0, engine.WithPolicy(policy))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
}

func TestHistoryEngineGreedy(t *testing.T) {
	sh := historyShape
	sh.capacity = 1
	checkRuns(t, historyTree(t), sh, historyEngine(engine.Greedy()))
}

func TestHistoryEngineCapacityGreedy(t *testing.T) {
	sh := historyShape
	sh.capacity = 3
	checkRuns(t, historyTree(t), sh, historyEngine(engine.CapacityGreedy()))
}

// TestHistoryCluster runs the checker through a coordinator over three
// in-process nodes. Before each run it places the run's workers and checks
// that they land on more than one node, so the routed tiers and the root
// tier both answer.
func TestHistoryCluster(t *testing.T) {
	tree := historyTree(t)
	sh := historyShape
	sh.capacity = 1
	checkRuns(t, tree, sh, func(t *testing.T, codes []hst.Code) histCore {
		nodes := make([]cluster.NodeConn, 3)
		for i := range nodes {
			nodes[i] = cluster.LocalNode(cluster.NewNode())
		}
		coord, err := cluster.New(cluster.Config{
			Region: geo.NewRect(geo.Pt(0, 0), geo.Pt(100, 100)), Cols: 8, Rows: 8,
			Epsilon: 0.6, Seed: 9, Tree: tree, Nodes: nodes,
		})
		if err != nil {
			t.Fatal(err)
		}
		core := coord.Server().Core()
		for id, code := range codes {
			if err := core.InsertCapEpoch(code, id, 1, 0); err != nil {
				t.Fatal(err)
			}
		}
		holding := 0
		for _, n := range nodes {
			if res, err := n.Do(cluster.OpRequest{Kind: cluster.OpStatus}); err == nil && res.Len > 0 {
				holding++
			}
		}
		if holding < 2 {
			t.Errorf("the run's workers sit on %d of 3 nodes: the cluster run checks one node", holding)
		}
		for id, code := range codes {
			core.RemoveUnits(code, id)
		}
		return core
	})
}

// secondNearest is the mutation the checker must catch: whenever another
// call is in flight it pops the nearest worker and the next, puts the first
// back, and answers the second.
type secondNearest struct {
	histCore
	codes    []hst.Code
	inFlight atomic.Int32
	fired    atomic.Int32
}

func (c *secondNearest) Assign(code hst.Code) (int, int, bool) {
	defer c.inFlight.Add(-1)
	contended := c.inFlight.Add(1) > 1
	runtime.Gosched()
	id, lvl, ok := c.histCore.Assign(code)
	if !ok || !contended {
		return id, lvl, ok
	}
	id2, lvl2, ok2 := c.histCore.Assign(code)
	if !ok2 {
		return id, lvl, ok
	}
	if err := c.histCore.AddCapacityEpoch(c.codes[id], id, 0); err != nil {
		panic(err)
	}
	c.fired.Add(1)
	return id2, lvl2, true
}

func TestHistoryCatchesSecondNearest(t *testing.T) {
	tree := historyTree(t)
	sh := historyShape
	sh.capacity = 1
	codes := historyCodes(tree, sh, 1)
	e, err := engine.New(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	mutant := &secondNearest{histCore: e, codes: codes}
	logs := runHistory(mutant, tree, codes, sh, 1)
	if mutant.fired.Load() == 0 {
		t.Fatal("no assignment ran under contention: the run cannot show the mutation")
	}
	if bad := checkHistory(tree, codes, logs); len(bad) == 0 {
		t.Errorf("the checker passed a core that answered the second-nearest worker %d times under contention", mutant.fired.Load())
	} else {
		t.Logf("%d contended answers, first violation: %s", mutant.fired.Load(), bad[0])
	}
}
