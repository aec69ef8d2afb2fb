package engine_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/match"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

func buildTree(t testing.TB, cols int, seed uint64) *hst.Tree {
	t.Helper()
	grid, err := geo.NewGrid(workload.SyntheticRegion, cols, cols)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hst.Build(grid.Points(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// randCode draws a uniformly random (possibly fake) leaf code.
func randCode(tree *hst.Tree, s *rng.Source) hst.Code {
	b := make([]byte, tree.Depth())
	for i := range b {
		b[i] = byte(s.Intn(tree.Degree()))
	}
	return hst.Code(b)
}

func newTestEngine(t testing.TB, tree *hst.Tree, codes []hst.Code, shards int) *engine.Engine {
	t.Helper()
	e, err := engine.New(tree, shards)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range codes {
		if err := e.Insert(c, i); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestNewValidation(t *testing.T) {
	if _, err := engine.New(nil, 4); err == nil {
		t.Error("nil tree accepted")
	}
	tree := buildTree(t, 8, 1)
	e, err := engine.New(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The shard count is ignored: any count serves the same one index.
	for _, shards := range []int{-1, 1, tree.Degree() + 1, 10_000} {
		if e2, err := engine.New(tree, shards); err != nil || e2.Epoch() != e.Epoch() {
			t.Errorf("New(tree, %d) = %v, %v", shards, e2, err)
		}
	}
}

func TestInsertRemoveLen(t *testing.T) {
	tree := buildTree(t, 8, 2)
	e, err := engine.New(tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(hst.Code("x"), 0); err == nil {
		t.Error("malformed code accepted")
	}
	c0, c1 := tree.CodeOf(0), tree.CodeOf(17)
	if err := e.Insert(c0, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(c1, 1); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 2 {
		t.Errorf("Len = %d", e.Len())
	}
	if !e.Remove(c0, 0) {
		t.Error("Remove existing failed")
	}
	if e.Remove(c0, 0) {
		t.Error("Remove twice succeeded")
	}
	if e.Len() != 1 {
		t.Errorf("Len = %d after removal", e.Len())
	}
}

// TestAssignIsTreeNearest is the Alg. 4 validity property test: every
// assigned worker must be tree-nearest among the workers available at the
// moment of assignment, for every shard count.
func TestAssignIsTreeNearest(t *testing.T) {
	tree := buildTree(t, 16, 3)
	// Counts past the degree exercise second-digit sub-sharding, up to the
	// full degree² grid.
	for _, shards := range []int{1, 2, 3, 8, tree.Degree(), 2 * tree.Degree(), 1000} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			src := rng.New(uint64(100 + shards))
			n := 300
			codes := make([]hst.Code, n)
			for i := range codes {
				codes[i] = randCode(tree, src)
			}
			e := newTestEngine(t, tree, codes, shards)
			alive := make([]bool, n)
			for i := range alive {
				alive[i] = true
			}
			for task := 0; task < n+10; task++ {
				q := randCode(tree, src)
				id, lvl, ok := e.Assign(q)
				best := tree.Depth() + 1
				for i, c := range codes {
					if alive[i] {
						if l := tree.LCALevel(q, c); l < best {
							best = l
						}
					}
				}
				if best > tree.Depth() { // no workers left
					if ok {
						t.Fatalf("task %d assigned worker %d with none available", task, id)
					}
					continue
				}
				if !ok {
					t.Fatalf("task %d unassigned with workers available", task)
				}
				if !alive[id] {
					t.Fatalf("task %d got already-assigned worker %d", task, id)
				}
				if got := tree.LCALevel(q, codes[id]); got != best || lvl != best {
					t.Fatalf("task %d: worker %d at level %d (reported %d), nearest is %d",
						task, id, got, lvl, best)
				}
				alive[id] = false
			}
		})
	}
}

// TestAssignMatchesScan checks the stronger sequential guarantee: with
// lowest-id tie-breaking throughout, the engine reproduces the paper's
// scanning matcher assignment for assignment.
func TestAssignMatchesScan(t *testing.T) {
	tree := buildTree(t, 16, 4)
	for _, shards := range []int{1, 4, 7, 2*tree.Degree() + 1} {
		src := rng.New(uint64(40 + shards))
		n := 250
		codes := make([]hst.Code, n)
		for i := range codes {
			codes[i] = randCode(tree, src)
		}
		e := newTestEngine(t, tree, codes, shards)
		scan := match.NewHSTGreedyScan(tree, codes)
		for task := 0; task < n+5; task++ {
			q := randCode(tree, src)
			want := scan.Assign(q)
			id, _, ok := e.Assign(q)
			if !ok {
				id = match.NoWorker
			}
			if id != want {
				t.Fatalf("shards=%d task %d: engine chose %d, scan chose %d", shards, task, id, want)
			}
		}
	}
}

// TestAssignBatchMatchesSequential: a batch must produce exactly the
// outcome of assigning its codes one by one.
func TestAssignBatchMatchesSequential(t *testing.T) {
	tree := buildTree(t, 16, 5)
	src := rng.New(77)
	n := 200
	codes := make([]hst.Code, n)
	for i := range codes {
		codes[i] = randCode(tree, src)
	}
	tasks := make([]hst.Code, n+20)
	for i := range tasks {
		tasks[i] = randCode(tree, src)
	}
	tasks[3] = hst.Code("bogus") // malformed codes yield engine.None, consume nothing

	eb := newTestEngine(t, tree, codes, 5)
	es := newTestEngine(t, tree, codes, 5)
	got, lvls := eb.AssignBatch(tasks)
	for i, q := range tasks {
		id, lvl, ok := es.Assign(q)
		if !ok {
			id = engine.None
		}
		if got[i] != id {
			t.Fatalf("task %d: batch chose %d, sequential chose %d", i, got[i], id)
		}
		if ok && lvls[i] != lvl {
			t.Fatalf("task %d: batch reported level %d, sequential %d", i, lvls[i], lvl)
		}
	}
	if eb.Len() != es.Len() {
		t.Fatalf("Len diverged: batch %d, sequential %d", eb.Len(), es.Len())
	}
}

func TestSinglePointTree(t *testing.T) {
	// One predefined point: hst.Build clamps depth to 1 with a single
	// branch, so every item sits on the query leaf (level 0).
	tree, err := hst.Build([]geo.Point{geo.Pt(1, 1)}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	code := tree.CodeOf(0)
	for i := 0; i < 3; i++ {
		if err := e.Insert(code, i); err != nil {
			t.Fatal(err)
		}
	}
	for want := 0; want < 3; want++ {
		id, lvl, ok := e.Assign(code)
		if !ok || id != want || lvl != 0 {
			t.Fatalf("Assign = (%d,%d,%v), want (%d,0,true)", id, lvl, ok, want)
		}
	}
	if _, _, ok := e.Assign(code); ok {
		t.Error("Assign on drained engine returned ok")
	}
}

// TestConcurrentAssignNoDoubleAssignment drives many goroutines through
// Assign and AssignBatch at once (run under -race) and checks that every
// worker is handed out exactly once and the counts add up.
func TestConcurrentAssignNoDoubleAssignment(t *testing.T) {
	tree := buildTree(t, 16, 6)
	const nWorkers = 600
	const nGoroutines = 8
	const tasksPer = 100 // 800 tasks for 600 workers: some must be rejected
	src := rng.New(55)
	codes := make([]hst.Code, nWorkers)
	for i := range codes {
		codes[i] = randCode(tree, src)
	}
	e := newTestEngine(t, tree, codes, 6)

	results := make([][]int, nGoroutines)
	var wg sync.WaitGroup
	for g := 0; g < nGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := rng.New(uint64(g))
			if g%2 == 0 {
				batch := make([]hst.Code, tasksPer)
				for i := range batch {
					batch[i] = randCode(tree, s)
				}
				results[g], _ = e.AssignBatch(batch)
			} else {
				out := make([]int, 0, tasksPer)
				for i := 0; i < tasksPer; i++ {
					id, _, ok := e.Assign(randCode(tree, s))
					if !ok {
						id = engine.None
					}
					out = append(out, id)
				}
				results[g] = out
			}
		}(g)
	}
	wg.Wait()

	seen := map[int]bool{}
	assigned, rejected := 0, 0
	for _, rs := range results {
		for _, id := range rs {
			if id == engine.None {
				rejected++
				continue
			}
			if seen[id] {
				t.Fatalf("worker %d assigned twice", id)
			}
			seen[id] = true
			assigned++
		}
	}
	if assigned != nWorkers {
		t.Errorf("assigned %d workers, want all %d", assigned, nWorkers)
	}
	if assigned+rejected != nGoroutines*tasksPer {
		t.Errorf("assigned %d + rejected %d ≠ %d tasks", assigned, rejected, nGoroutines*tasksPer)
	}
	if e.Len() != 0 {
		t.Errorf("Len = %d after draining", e.Len())
	}
}

// TestShardStatsAccounting: the one row of counters must add up to the
// serving traffic — every successful pop is one assign — and no task ever
// falls back.
func TestShardStatsAccounting(t *testing.T) {
	tree := buildTree(t, 8, 6)
	e, err := engine.New(tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(27)
	const n = 120
	for i := 0; i < n; i++ {
		if err := e.Insert(randCode(tree, src), i); err != nil {
			t.Fatal(err)
		}
	}
	assigned := 0
	for i := 0; i < n+20; i++ {
		if _, _, ok := e.Assign(randCode(tree, src)); ok {
			assigned++
		}
	}
	stats := e.ShardStats()
	if len(stats) != 1 || stats[0].Assigns != int64(assigned) || stats[0].Fallbacks != 0 {
		t.Fatalf("ShardStats = %+v, served %d", stats, assigned)
	}
}
