package engine_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

// refPool is the pre-refactor sequential reference: the scanning rule of
// Alg. 4 exactly as match.HSTGreedyScan implements it — minimal LCA level,
// ties to the lowest id — over a live map of available workers.
type refPool struct {
	tree  *hst.Tree
	codes map[int]hst.Code
}

func (r *refPool) assign(code hst.Code) (id, lvl int, ok bool) {
	if r.tree.CheckCode(code) != nil || len(r.codes) == 0 {
		return engine.None, 0, false
	}
	best, bestLvl := -1, r.tree.Depth()+1
	for i, c := range r.codes {
		l := r.tree.LCALevel(code, c)
		if l < bestLvl || (l == bestLvl && i < best) {
			best, bestLvl = i, l
		}
	}
	delete(r.codes, best)
	return best, bestLvl, true
}

// TestGreedyDifferentialOpTape is the refactor's acceptance test: random
// operation tapes — insert, assign, withdraw, epoch rotation — replayed
// through the policy-seamed engine under Greedy and through the
// pre-refactor scanning semantics must produce identical assignments,
// decision for decision, at several shard counts.
func TestGreedyDifferentialOpTape(t *testing.T) {
	// 33 and 1000 land past any grid-16 tree's degree, driving the
	// sub-sharded (second-digit split) layout through the same tape.
	for _, shards := range []int{1, 3, 8, 33, 1000} {
		for seed := uint64(1); seed <= 3; seed++ {
			tree := buildTree(t, 16, 40+seed)
			e, err := engine.New(tree, shards)
			if err != nil {
				t.Fatal(err)
			}
			if e.Policy().Name() != "greedy" {
				t.Fatalf("default policy = %q", e.Policy().Name())
			}
			ref := &refPool{tree: tree, codes: map[int]hst.Code{}}
			src := rng.New(900 + seed)
			nextID := 0
			epoch := int64(engine.FirstEpoch)
			live := []int{} // ids currently available, for withdraw picks
			reinsert := func(id int, code hst.Code) {
				if err := e.InsertEpoch(code, id, epoch); err != nil {
					t.Fatal(err)
				}
				ref.codes[id] = code
				live = append(live, id)
			}
			for step := 0; step < 600; step++ {
				switch op := src.Intn(10); {
				case op < 4: // insert
					code := randCode(tree, src)
					reinsert(nextID, code)
					nextID++
				case op < 8: // assign
					q := randCode(tree, src)
					gid, glvl, gok := e.Assign(q)
					wid, wlvl, wok := ref.assign(q)
					if gid != wid || glvl != wlvl || gok != wok {
						t.Fatalf("shards=%d seed=%d step %d: engine (%d,%d,%v) ≠ scan (%d,%d,%v)",
							shards, seed, step, gid, glvl, gok, wid, wlvl, wok)
					}
					if gok {
						for i, id := range live {
							if id == gid {
								live = append(live[:i], live[i+1:]...)
								break
							}
						}
					}
				case op < 9: // withdraw a random available worker
					if len(live) == 0 {
						continue
					}
					i := src.Intn(len(live))
					id := live[i]
					code := ref.codes[id]
					if !e.Remove(code, id) {
						t.Fatalf("step %d: Remove(%d) failed", step, id)
					}
					delete(ref.codes, id)
					live = append(live[:i], live[i+1:]...)
				default: // rotate: fresh tree, re-obfuscated population
					epoch++
					newTree := buildTree(t, 16, 7000+uint64(step)+seed)
					inserts := make([]engine.EpochInsert, 0, len(live))
					newCodes := map[int]hst.Code{}
					for _, id := range live {
						c := randCode(newTree, src)
						inserts = append(inserts, engine.EpochInsert{Code: c, ID: id})
						newCodes[id] = c
					}
					if err := e.SwapEpoch(epoch, newTree, 0, inserts); err != nil {
						t.Fatal(err)
					}
					tree = newTree
					ref.tree = newTree
					ref.codes = newCodes
				}
			}
			if e.Len() != len(ref.codes) {
				t.Fatalf("shards=%d seed=%d: pool %d ≠ reference %d", shards, seed, e.Len(), len(ref.codes))
			}
		}
	}
}

func TestCapacityGreedyConsumesUnits(t *testing.T) {
	tree := buildTree(t, 8, 11)
	e, err := engine.NewWithOptions(tree, 0, engine.WithPolicy(engine.CapacityGreedy()))
	if err != nil {
		t.Fatal(err)
	}
	c := tree.CodeOf(3)
	if err := e.InsertCapEpoch(c, 0, 3, 0); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 1 || e.CapacityUnits() != 3 {
		t.Fatalf("Len=%d Units=%d, want 1/3", e.Len(), e.CapacityUnits())
	}
	for i := 0; i < 3; i++ {
		id, lvl, ok := e.Assign(c)
		if !ok || id != 0 || lvl != 0 {
			t.Fatalf("assign %d = (%d,%d,%v)", i, id, lvl, ok)
		}
	}
	if _, _, ok := e.Assign(c); ok {
		t.Error("assign succeeded on an exhausted worker")
	}
	if e.Len() != 0 || e.CapacityUnits() != 0 {
		t.Fatalf("Len=%d Units=%d after draining", e.Len(), e.CapacityUnits())
	}
}

// TestGreedyClampsCapacity pins the paper-faithful contract: under the
// default policy every slot serves exactly one task, whatever capacity the
// insert requested.
func TestGreedyClampsCapacity(t *testing.T) {
	tree := buildTree(t, 8, 12)
	e, err := engine.New(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := tree.CodeOf(5)
	if err := e.InsertCapEpoch(c, 0, 5, 0); err != nil {
		t.Fatal(err)
	}
	if e.CapacityUnits() != 1 {
		t.Fatalf("Units = %d under greedy, want 1", e.CapacityUnits())
	}
	if _, _, ok := e.Assign(c); !ok {
		t.Fatal("first assign failed")
	}
	if _, _, ok := e.Assign(c); ok {
		t.Error("greedy served a second task from one slot")
	}
}

func TestDefaultCapacityNeedsCapacityAwarePolicy(t *testing.T) {
	tree := buildTree(t, 8, 13)
	if _, err := engine.NewWithOptions(tree, 0, engine.WithDefaultCapacity(2)); err == nil {
		t.Error("default capacity 2 accepted under greedy")
	}
	if e, err := engine.NewWithOptions(tree, 0, engine.WithDefaultCapacity(0)); err != nil || e.DefaultCapacity() != 1 {
		t.Errorf("zero default capacity: %v, want the default of 1", err)
	}
	if _, err := engine.NewWithOptions(tree, 0, engine.WithDefaultCapacity(-1)); err == nil {
		t.Error("negative default capacity accepted")
	}
	e, err := engine.NewWithOptions(tree, 0,
		engine.WithPolicy(engine.CapacityGreedy()), engine.WithDefaultCapacity(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(tree.CodeOf(0), 0); err != nil {
		t.Fatal(err)
	}
	if e.CapacityUnits() != 4 {
		t.Fatalf("Units = %d, want the default capacity 4", e.CapacityUnits())
	}
}

func TestAddCapacityRoundTrip(t *testing.T) {
	tree := buildTree(t, 8, 14)
	e, err := engine.NewWithOptions(tree, 0, engine.WithPolicy(engine.CapacityGreedy()))
	if err != nil {
		t.Fatal(err)
	}
	c := tree.CodeOf(9)
	if err := e.InsertCapEpoch(c, 2, 2, 0); err != nil {
		t.Fatal(err)
	}
	// Consume both units, then return them one at a time: the second return
	// must re-insert the fully drained slot.
	e.Assign(c)
	e.Assign(c)
	if e.Len() != 0 {
		t.Fatal("slot not drained")
	}
	if err := e.AddCapacityEpoch(c, 2, 0); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 1 || e.CapacityUnits() != 1 {
		t.Fatalf("Len=%d Units=%d after first return", e.Len(), e.CapacityUnits())
	}
	if err := e.AddCapacityEpoch(c, 2, 0); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 1 || e.CapacityUnits() != 2 {
		t.Fatalf("Len=%d Units=%d after second return", e.Len(), e.CapacityUnits())
	}
	if id, _, ok := e.Assign(c); !ok || id != 2 {
		t.Fatalf("assign after returns = (%d,%v)", id, ok)
	}
}

// RelocateEpoch moves a worker's pooled units to a fresh leaf with the unit
// handed back; a worker with nothing pooled gets that unit at the fresh
// leaf, a bare move of nothing refuses, and a refusal changes nothing.
// Under greedy a moved worker keeps one unit.
func TestRelocateEpoch(t *testing.T) {
	tree := buildTree(t, 8, 14)
	e, err := engine.NewWithOptions(tree, 0, engine.WithPolicy(engine.CapacityGreedy()))
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := tree.CodeOf(9), tree.CodeOf(40)
	if err := e.InsertCapEpoch(c0, 2, 3, 0); err != nil {
		t.Fatal(err)
	}
	books := func(what string, n, units int) {
		t.Helper()
		if e.Len() != n || e.CapacityUnits() != units {
			t.Fatalf("%s: Len=%d Units=%d, want %d and %d", what, e.Len(), e.CapacityUnits(), n, units)
		}
	}
	if pooled, err := e.RelocateEpoch(c0, c1, 2, 1, engine.FirstEpoch); err != nil || pooled != 3 {
		t.Fatalf("move = (%d, %v), want 3 pooled", pooled, err)
	}
	books("after the move", 1, 4)
	if id, lvl, ok := e.Assign(c1); !ok || id != 2 || lvl != 0 {
		t.Fatalf("assign at the fresh leaf = (%d,%d,%v)", id, lvl, ok)
	}
	for what, call := range map[string]func() (int, error){
		"a bare move of nothing": func() (int, error) { return e.RelocateEpoch(c0, c1, 2, 0, 0) },
		"a stale epoch":          func() (int, error) { return e.RelocateEpoch(c1, c0, 2, 1, engine.FirstEpoch+1) },
		"a malformed code":       func() (int, error) { return e.RelocateEpoch(c1, hst.Code("x"), 2, 1, 0) },
	} {
		if _, err := call(); err == nil {
			t.Fatalf("%s accepted", what)
		}
		books(what, 1, 3)
	}
	if pooled, err := e.RelocateEpoch("", c0, 5, 1, 0); err != nil || pooled != 0 {
		t.Fatalf("a worker with nothing pooled = (%d, %v)", pooled, err)
	}
	books("a unit handed back at a fresh leaf", 2, 4)

	g, err := engine.New(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Insert(c0, 1); err != nil {
		t.Fatal(err)
	}
	if pooled, err := g.RelocateEpoch(c0, c1, 1, 1, 0); err != nil || pooled != 1 || g.CapacityUnits() != 1 {
		t.Fatalf("greedy move = (%d, %v), %d units, want one", pooled, err, g.CapacityUnits())
	}
}

// A worker already at the index's 2³¹−1 unit ceiling is saturated, not
// gone: returning a unit to it must refuse and change nothing. Reading the
// index's refusal as "item consumed away" re-inserted the id beside itself
// (Len 1 → 2, CapacityUnits 2³¹).
func TestAddCapacitySaturatedSlotRefuses(t *testing.T) {
	tree := buildTree(t, 8, 14)
	e, err := engine.NewWithOptions(tree, 0, engine.WithPolicy(engine.CapacityGreedy()))
	if err != nil {
		t.Fatal(err)
	}
	c := tree.CodeOf(9)
	if err := e.InsertCapEpoch(c, 2, math.MaxInt32, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.AddCapacityEpoch(c, 2, 0); !errors.Is(err, hst.ErrUnitsOverflow) {
		t.Fatalf("return to a saturated slot: %v, want ErrUnitsOverflow", err)
	}
	if e.Len() != 1 || e.CapacityUnits() != math.MaxInt32 {
		t.Fatalf("Len=%d Units=%d after the refusal, want 1 and MaxInt32", e.Len(), e.CapacityUnits())
	}
	// One pop makes room, and the return then lands on the same item.
	if id, _, ok := e.Assign(c); !ok || id != 2 {
		t.Fatalf("assign = (%d,%v)", id, ok)
	}
	if err := e.AddCapacityEpoch(c, 2, 0); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 1 || e.CapacityUnits() != math.MaxInt32 {
		t.Fatalf("Len=%d Units=%d after pop and return, want 1 and MaxInt32", e.Len(), e.CapacityUnits())
	}
}

// TestBatchOptimalAvoidsGreedySteal is the window-solving policy's raison
// d'être: a first task that would greedily grab a second task's co-located
// worker is instead routed to the equidistant alternative, minimising the
// window's total tree distance.
func TestBatchOptimalAvoidsGreedySteal(t *testing.T) {
	tree := buildTree(t, 16, 15)
	c1 := tree.CodeOf(0) // worker 0's leaf; task 2 sits here too
	near := []byte(c1)
	near[len(near)-1] = byte((int(near[len(near)-1]) + 1) % tree.Degree())
	taskA := hst.Code(near) // LCA level 1 with c1
	far := []byte(c1)
	far[0] = byte((int(far[0]) + 1) % tree.Degree())
	c2 := hst.Code(far) // worker 1's leaf, across the root

	build := func(p engine.Policy) *engine.Engine {
		e, err := engine.NewWithOptions(tree, 1, engine.WithPolicy(p))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Insert(c1, 0); err != nil {
			t.Fatal(err)
		}
		if err := e.Insert(c2, 1); err != nil {
			t.Fatal(err)
		}
		return e
	}
	window := []hst.Code{taskA, c1}

	gIDs, _ := build(engine.Greedy()).AssignBatch(window)
	if gIDs[0] != 0 || gIDs[1] != 1 {
		t.Fatalf("greedy assigned %v, want [0 1]", gIDs)
	}
	bIDs, bLvls := build(engine.BatchOptimal(4)).AssignBatch(window)
	if bIDs[0] != 1 || bIDs[1] != 0 {
		t.Fatalf("batch-optimal assigned %v, want [1 0]", bIDs)
	}
	if bLvls[1] != 0 {
		t.Fatalf("batch-optimal matched the co-located pair at level %d", bLvls[1])
	}
}

// TestBatchOptimalPadsAcrossShards: tasks whose top branch holds no worker
// must still be served, at the root level, smallest ids first.
func TestBatchOptimalPadsAcrossShards(t *testing.T) {
	tree := buildTree(t, 16, 16)
	e, err := engine.NewWithOptions(tree, 8, engine.WithPolicy(engine.BatchOptimal(2)))
	if err != nil {
		t.Fatal(err)
	}
	// All workers in top branch 1; all tasks in top branch 0.
	wcode := []byte(tree.CodeOf(0))
	wcode[0] = 1
	for id := 0; id < 4; id++ {
		if err := e.Insert(hst.Code(wcode), id); err != nil {
			t.Fatal(err)
		}
	}
	tcode := []byte(tree.CodeOf(0))
	tcode[0] = 0
	ids, lvls := e.AssignBatch([]hst.Code{hst.Code(tcode), hst.Code(tcode)})
	if ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("pad assignment %v, want [0 1]", ids)
	}
	for _, lvl := range lvls {
		if lvl != tree.Depth() {
			t.Fatalf("pad levels %v, want all %d", lvls, tree.Depth())
		}
	}
	if e.Windows() != 1 {
		t.Errorf("Windows = %d, want 1", e.Windows())
	}
}

// TestBatchOptimalRespectsCapacity: a single capacitated worker can absorb
// a whole window.
func TestBatchOptimalRespectsCapacity(t *testing.T) {
	tree := buildTree(t, 8, 17)
	e, err := engine.NewWithOptions(tree, 0, engine.WithPolicy(engine.BatchOptimal(0)))
	if err != nil {
		t.Fatal(err)
	}
	c := tree.CodeOf(1)
	if err := e.InsertCapEpoch(c, 0, 2, 0); err != nil {
		t.Fatal(err)
	}
	ids, _ := e.AssignBatch([]hst.Code{c, c, c})
	assigned := 0
	for _, id := range ids {
		if id == 0 {
			assigned++
		} else if id != engine.None {
			t.Fatalf("unexpected worker %d", id)
		}
	}
	if assigned != 2 {
		t.Fatalf("capacitated worker served %d tasks, want 2", assigned)
	}
	if e.Len() != 0 {
		t.Error("exhausted worker still in the pool")
	}
}

func TestEpochInsertCarriesCapacity(t *testing.T) {
	tree := buildTree(t, 8, 18)
	e, err := engine.NewWithOptions(tree, 0, engine.WithPolicy(engine.CapacityGreedy()))
	if err != nil {
		t.Fatal(err)
	}
	next := buildTree(t, 8, 19)
	c := next.CodeOf(2)
	if err := e.SwapEpoch(2, next, 0, []engine.EpochInsert{{Code: c, ID: 7, Cap: 2}}); err != nil {
		t.Fatal(err)
	}
	if e.CapacityUnits() != 2 {
		t.Fatalf("Units = %d after swap, want 2", e.CapacityUnits())
	}
	for i := 0; i < 2; i++ {
		if id, _, ok := e.Assign(c); !ok || id != 7 {
			t.Fatalf("assign %d = (%d,%v)", i, id, ok)
		}
	}
}

func TestPolicyByName(t *testing.T) {
	cases := map[string]string{
		"":                  "greedy",
		"greedy":            "greedy",
		"capacity-greedy":   "capacity-greedy",
		"batch-optimal":     "batch-optimal:k=8",
		"batch-optimal:k=3": "batch-optimal:k=3",
	}
	for spec, want := range cases {
		p, err := engine.PolicyByName(spec)
		if err != nil {
			t.Errorf("PolicyByName(%q): %v", spec, err)
			continue
		}
		if p.Name() != want {
			t.Errorf("PolicyByName(%q).Name() = %q, want %q", spec, p.Name(), want)
		}
	}
	for _, bad := range []string{"optimal", "batch-optimal:k=0", "batch-optimal:k=x"} {
		if _, err := engine.PolicyByName(bad); err == nil {
			t.Errorf("PolicyByName(%q) accepted", bad)
		}
	}
	// A policy's Name is a spec for the same policy: a cluster node is
	// initialised with its coordinator's policy by name.
	for _, spec := range engine.PolicyNames() {
		spec = strings.ReplaceAll(spec, "<n>", "16")
		p, err := engine.PolicyByName(spec)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", spec, err)
		}
		q, err := engine.PolicyByName(p.Name())
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", p.Name(), err)
		}
		if q.Name() != p.Name() || q.CapacityAware() != p.CapacityAware() {
			t.Errorf("%q round-trips as %q (capacity-aware %v, want %v)", p.Name(), q.Name(), q.CapacityAware(), p.CapacityAware())
		}
	}
}

// TestEffectiveCapacity is the capacity rule every insert and the server's
// registration books resolve through.
func TestEffectiveCapacity(t *testing.T) {
	for _, c := range []struct {
		p              engine.Policy
		def, req, want int
	}{
		{engine.Greedy(), 1, 0, 1},
		{engine.Greedy(), 1, 5, 1},
		{engine.Greedy(), 1, -3, 1},
		{engine.CapacityGreedy(), 1, 0, 1},
		{engine.CapacityGreedy(), 4, 0, 4},
		{engine.CapacityGreedy(), 4, -1, 4},
		{engine.CapacityGreedy(), 4, 2, 2},
		{engine.BatchOptimal(0), 3, 0, 3},
		{engine.BatchOptimal(0), 3, 1 << 31, 1 << 31},
	} {
		if got := engine.EffectiveCapacity(c.p, c.def, c.req); got != c.want {
			t.Errorf("EffectiveCapacity(%s, default %d, requested %d) = %d, want %d", c.p.Name(), c.def, c.req, got, c.want)
		}
	}
}
