package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

func buildTestTree(t *testing.T, seed uint64, cols int) *hst.Tree {
	t.Helper()
	grid, err := geo.NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(200, 200)), cols, cols)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hst.Build(grid.Points(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestSwapEpochBasics(t *testing.T) {
	tree1 := buildTestTree(t, 1, 8)
	tree2 := buildTestTree(t, 2, 8)
	eng, err := New(tree1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() != FirstEpoch {
		t.Fatalf("fresh engine serves epoch %d", eng.Epoch())
	}
	src := rng.New(3)
	for id := 0; id < 50; id++ {
		if err := eng.Insert(randCode(tree1, src), id); err != nil {
			t.Fatal(err)
		}
	}

	// Swapping to a non-advancing epoch is refused.
	if err := eng.SwapEpoch(FirstEpoch, tree2, 0, nil); err == nil {
		t.Error("swap to the same epoch accepted")
	}

	// Swap with a re-obfuscated population: only the inserts survive.
	inserts := make([]EpochInsert, 10)
	for i := range inserts {
		inserts[i] = EpochInsert{Code: randCode(tree2, src), ID: 100 + i}
	}
	if err := eng.SwapEpoch(2, tree2, 0, inserts); err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() != 2 {
		t.Fatalf("Epoch = %d after swap", eng.Epoch())
	}
	if eng.Tree() != tree2 {
		t.Error("Tree() still returns the old epoch's tree")
	}
	if eng.Len() != len(inserts) {
		t.Fatalf("Len = %d after swap, want %d", eng.Len(), len(inserts))
	}
	// Every assignment now pops a new-epoch worker, stamped epoch 2.
	got := map[int]bool{}
	for {
		id, _, ep, ok := eng.AssignEpoch(randCode(tree2, src))
		if !ok {
			break
		}
		if ep != 2 {
			t.Fatalf("pop stamped epoch %d, want 2", ep)
		}
		if id < 100 {
			t.Fatalf("pop returned old-epoch worker %d", id)
		}
		got[id] = true
	}
	if len(got) != len(inserts) {
		t.Fatalf("drained %d workers, want %d", len(got), len(inserts))
	}
}

func TestInsertEpochRefusesStale(t *testing.T) {
	tree1 := buildTestTree(t, 1, 8)
	tree2 := buildTestTree(t, 2, 8)
	eng, err := New(tree1, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(9)
	code1 := randCode(tree1, src)
	if err := eng.InsertEpoch(code1, 1, FirstEpoch); err != nil {
		t.Fatal(err)
	}
	if err := eng.SwapEpoch(2, tree2, 0, nil); err != nil {
		t.Fatal(err)
	}
	// A release pinned to the rotated-away epoch must be refused, not land
	// a stale-tree code in the fresh index.
	err = eng.InsertEpoch(code1, 2, FirstEpoch)
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale insert error = %v, want ErrStaleEpoch", err)
	}
	if eng.Len() != 0 {
		t.Fatalf("stale insert mutated the new epoch: Len = %d", eng.Len())
	}
	// Unpinned (epoch 0) inserts follow the current epoch.
	if err := eng.InsertEpoch(randCode(tree2, src), 3, 0); err != nil {
		t.Fatal(err)
	}
	if eng.Len() != 1 {
		t.Fatalf("Len = %d", eng.Len())
	}
}

func TestSwapEpochValidatesInserts(t *testing.T) {
	tree1 := buildTestTree(t, 1, 8)
	tree2 := buildTestTree(t, 2, 8)
	eng, err := New(tree1, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(4)
	if err := eng.Insert(randCode(tree1, src), 7); err != nil {
		t.Fatal(err)
	}
	// A malformed insert aborts the swap and leaves the old epoch serving.
	bad := hst.Code(make([]byte, tree2.Depth()+3))
	if err := eng.SwapEpoch(2, tree2, 0, []EpochInsert{{Code: bad, ID: 1}}); err == nil {
		t.Fatal("swap with malformed insert accepted")
	}
	if eng.Epoch() != FirstEpoch || eng.Len() != 1 {
		t.Fatalf("failed swap disturbed serving state: epoch %d, len %d", eng.Epoch(), eng.Len())
	}
}

func TestWalkSeesPopulation(t *testing.T) {
	tree := buildTestTree(t, 5, 8)
	eng, err := New(tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(6)
	want := map[int]hst.Code{}
	for id := 0; id < 64; id++ {
		c := randCode(tree, src)
		want[id] = c
		if err := eng.Insert(c, id); err != nil {
			t.Fatal(err)
		}
	}
	got := map[int]hst.Code{}
	eng.Walk(func(code hst.Code, id int) { got[id] = code })
	if len(got) != len(want) {
		t.Fatalf("Walk visited %d items, want %d", len(got), len(want))
	}
	for id, c := range want {
		if got[id] != c {
			t.Errorf("Walk: worker %d at %v, want %v", id, []byte(got[id]), []byte(c))
		}
	}
}

// TestConcurrentSwapBarrier hammers Assign/Insert/Remove while another
// goroutine repeatedly swaps epochs, asserting under -race that (a) every
// pop is stamped with a consistent epoch, (b) epoch stamps never go
// backwards, and (c) a drain after quiescing finds only current-epoch
// workers.
func TestConcurrentSwapBarrier(t *testing.T) {
	trees := []*hst.Tree{
		buildTestTree(t, 11, 8),
		buildTestTree(t, 12, 8),
		buildTestTree(t, 13, 8),
		buildTestTree(t, 14, 8),
	}
	eng, err := New(trees[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	const nWorkers = 256
	rotations := stressN(20)
	var wg sync.WaitGroup
	var stop atomic.Bool
	var maxSeen atomic.Int64
	maxSeen.Store(FirstEpoch)

	// Mutators: insert and assign against whatever epoch is current.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rng.New(100).DeriveN("mutator", g)
			for !stop.Load() {
				tree := eng.Tree()
				id := src.Intn(nWorkers)
				// Insert against the loaded tree; a swap in between makes
				// the code invalid for the new tree (depths differ) or
				// places it fine — both acceptable; never a panic or a
				// cross-tree code in the index.
				_ = eng.InsertEpoch(randCode(tree, src), id, 0)
				if _, _, ep, ok := eng.AssignEpoch(randCode(eng.Tree(), src)); ok {
					for {
						prev := maxSeen.Load()
						if ep <= prev || maxSeen.CompareAndSwap(prev, ep) {
							break
						}
					}
					if ep < FirstEpoch {
						t.Errorf("pop stamped invalid epoch %d", ep)
					}
				}
			}
		}(g)
	}

	src := rng.New(200)
	for r := 0; r < rotations; r++ {
		tree := trees[(r+1)%len(trees)]
		epoch := int64(FirstEpoch + r + 1)
		inserts := make([]EpochInsert, 32)
		for i := range inserts {
			inserts[i] = EpochInsert{Code: randCode(tree, src), ID: 1000 + r*100 + i}
		}
		if err := eng.SwapEpoch(epoch, tree, 0, inserts); err != nil {
			t.Fatalf("rotation %d: %v", r, err)
		}
	}
	stop.Store(true)
	wg.Wait()

	if got := maxSeen.Load(); got > int64(FirstEpoch+rotations) {
		t.Errorf("observed epoch %d beyond the last rotation %d", got, FirstEpoch+rotations)
	}
	// Quiesced: the index holds only codes valid for the final tree, and
	// its bookkeeping is intact.
	final := eng.Tree()
	eng.Walk(func(code hst.Code, id int) {
		if err := final.CheckCode(code); err != nil {
			t.Errorf("worker %d holds a cross-epoch code: %v", id, err)
		}
	})
	if u, n := eng.CapacityUnits(), eng.Len(); u != n {
		t.Errorf("CapacityUnits %d != Len %d for capacity-1 workers after swaps", u, n)
	}
}
