package engine_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

// TestRoutedBatchDifferentialOpTape is the greedy batch path's acceptance
// test (named for the shard-routed path the batch once took): random
// operation tapes — batches of assigns, inserts, withdraws, epoch
// rotations — served through AssignBatch must match, decision for
// decision, a mirror engine fed the same tape one Assign at a time. The
// mirror's one-by-one path is itself pinned to the paper's scanning rule
// by TestGreedyDifferentialOpTape, so this transitively pins the batch's
// one hold to sequential semantics. The shard counts only seed the tapes.
func TestRoutedBatchDifferentialOpTape(t *testing.T) {
	for _, shards := range []int{2, 5, 33, 1000} {
		for seed := uint64(1); seed <= 2; seed++ {
			tree := buildTree(t, 16, 60+seed)
			eb := newTestEngine(t, tree, nil, shards)
			es := newTestEngine(t, tree, nil, shards)
			src := rng.New(1300 + uint64(shards)*7 + seed)
			nextID := 0
			epoch := int64(engine.FirstEpoch)
			codes := map[int]hst.Code{}
			live := []int{}
			for step := 0; step < 400; step++ {
				switch op := src.Intn(10); {
				case op < 3: // insert a fresh worker into both engines
					code := randCode(tree, src)
					for _, e := range []*engine.Engine{eb, es} {
						if err := e.Insert(code, nextID); err != nil {
							t.Fatal(err)
						}
					}
					codes[nextID] = code
					live = append(live, nextID)
					nextID++
				case op < 8: // a batch through eb, one by one through es
					m := 1 + src.Intn(64)
					batch := make([]hst.Code, m)
					for i := range batch {
						if src.Intn(20) == 0 {
							batch[i] = hst.Code("malformed")
						} else {
							batch[i] = randCode(tree, src)
						}
					}
					gotIDs, gotLvls := eb.AssignBatch(batch)
					for i, q := range batch {
						wid, wlvl, wok := es.Assign(q)
						if !wok {
							wid, wlvl = engine.None, 0
						}
						if gotIDs[i] != wid || gotLvls[i] != wlvl {
							t.Fatalf("shards=%d seed=%d step %d task %d: batch (%d,%d) ≠ sequential (%d,%d)",
								shards, seed, step, i, gotIDs[i], gotLvls[i], wid, wlvl)
						}
						if wok {
							for j, id := range live {
								if id == wid {
									live = append(live[:j], live[j+1:]...)
									break
								}
							}
						}
					}
				case op < 9: // withdraw a random available worker from both
					if len(live) == 0 {
						continue
					}
					i := src.Intn(len(live))
					id := live[i]
					for _, e := range []*engine.Engine{eb, es} {
						if !e.Remove(codes[id], id) {
							t.Fatalf("step %d: Remove(%d) failed", step, id)
						}
					}
					live = append(live[:i], live[i+1:]...)
				default: // rotate both engines to an identical fresh epoch
					epoch++
					newTree := buildTree(t, 16, 8000+uint64(step)+seed)
					inserts := make([]engine.EpochInsert, 0, len(live))
					for _, id := range live {
						c := randCode(newTree, src)
						inserts = append(inserts, engine.EpochInsert{Code: c, ID: id})
						codes[id] = c
					}
					for _, e := range []*engine.Engine{eb, es} {
						if err := e.SwapEpoch(epoch, newTree, 0, inserts); err != nil {
							t.Fatal(err)
						}
					}
					tree = newTree
				}
			}
			if eb.Len() != es.Len() {
				t.Fatalf("shards=%d seed=%d: pools diverged, batch %d ≠ sequential %d",
					shards, seed, eb.Len(), es.Len())
			}
		}
	}
}

// TestRoutedBatchCapacityDifferential runs the same batch-vs-sequential
// tape under the capacitated greedy rule: a batch's pops consume single
// units, exactly as the sequential path would.
func TestRoutedBatchCapacityDifferential(t *testing.T) {
	for _, shards := range []int{5, 33} {
		tree := buildTree(t, 16, 70)
		mk := func() *engine.Engine {
			e, err := engine.NewWithOptions(tree, shards, engine.WithPolicy(engine.CapacityGreedy()))
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		eb, es := mk(), mk()
		src := rng.New(1500 + uint64(shards))
		nextID := 0
		codes := map[int]hst.Code{}
		outstanding := map[int]int{} // units handed out, eligible for return
		for step := 0; step < 400; step++ {
			switch op := src.Intn(10); {
			case op < 3: // insert with a random capacity
				code, capUnits := randCode(tree, src), 1+src.Intn(3)
				for _, e := range []*engine.Engine{eb, es} {
					if err := e.InsertCapEpoch(code, nextID, capUnits, 0); err != nil {
						t.Fatal(err)
					}
				}
				codes[nextID] = code
				nextID++
			case op < 8: // batch vs sequential
				m := 1 + src.Intn(48)
				batch := make([]hst.Code, m)
				for i := range batch {
					batch[i] = randCode(tree, src)
				}
				gotIDs, gotLvls := eb.AssignBatch(batch)
				for i, q := range batch {
					wid, wlvl, wok := es.Assign(q)
					if !wok {
						wid, wlvl = engine.None, 0
					}
					if gotIDs[i] != wid || gotLvls[i] != wlvl {
						t.Fatalf("shards=%d step %d task %d: batch (%d,%d) ≠ sequential (%d,%d)",
							shards, step, i, gotIDs[i], gotLvls[i], wid, wlvl)
					}
					if wok {
						outstanding[wid]++
					}
				}
			default: // return one consumed unit to both engines
				for id, n := range outstanding {
					if n > 0 {
						for _, e := range []*engine.Engine{eb, es} {
							if err := e.AddCapacityEpoch(codes[id], id, 0); err != nil {
								t.Fatal(err)
							}
						}
						outstanding[id]--
						break
					}
				}
			}
		}
		if eb.CapacityUnits() != es.CapacityUnits() || eb.Len() != es.Len() {
			t.Fatalf("shards=%d: pools diverged, batch %d workers/%d units ≠ sequential %d/%d",
				shards, eb.Len(), eb.CapacityUnits(), es.Len(), es.CapacityUnits())
		}
	}
}

// TestRoutedBatchChurnRace drives greedy batches against concurrent
// inserts, withdrawals, and epoch rotations, for the race detector.
// Rotations republish the same tree so every code stays valid while the
// epoch pointer churns between in-flight batches.
func TestRoutedBatchChurnRace(t *testing.T) {
	tree := buildTree(t, 16, 80)
	eng, err := engine.New(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	const nWorkers = 256
	led := struct {
		mu    []sync.Mutex
		state []uint8 // 0 out of pool, 1 available
		code  []hst.Code
	}{
		mu:    make([]sync.Mutex, nWorkers),
		state: make([]uint8, nWorkers),
		code:  make([]hst.Code, nWorkers),
	}
	seedSrc := rng.New(3)
	for id := 0; id < nWorkers; id++ {
		led.code[id] = randCode(tree, seedSrc)
		led.state[id] = 1
		if err := eng.Insert(led.code[id], id); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var bad atomic.Int64
	for g := 0; g < 3; g++ { // batch assigners
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rng.New(11).DeriveN("batcher", g)
			for op := 0; op < 60; op++ {
				batch := make([]hst.Code, 48)
				for i := range batch {
					batch[i] = randCode(tree, src)
				}
				ids, _ := eng.AssignBatch(batch)
				for _, id := range ids {
					if id == engine.None {
						continue
					}
					led.mu[id].Lock()
					led.state[id] = 0
					if src.Intn(2) == 0 { // release back at a fresh report
						led.code[id] = randCode(tree, src)
						if err := eng.Insert(led.code[id], id); err != nil {
							bad.Add(1)
						} else {
							led.state[id] = 1
						}
					}
					led.mu[id].Unlock()
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ { // churners
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rng.New(17).DeriveN("churner", g)
			for op := 0; op < 800; op++ {
				id := src.Intn(nWorkers)
				led.mu[id].Lock()
				if led.state[id] == 1 {
					// A failed Remove lost to a concurrent pop; either way the
					// worker is out of the pool now.
					eng.Remove(led.code[id], id)
					led.state[id] = 0
				} else {
					led.code[id] = randCode(tree, src)
					if err := eng.Insert(led.code[id], id); err != nil {
						bad.Add(1)
					} else {
						led.state[id] = 1
					}
				}
				led.mu[id].Unlock()
			}
		}(g)
	}
	wg.Add(1)
	go func() { // rotator: same tree, fresh epoch, keeps whoever is live
		defer wg.Done()
		epoch := int64(engine.FirstEpoch)
		for i := 0; i < 12; i++ {
			// The WalkCap view races the churn, which is exactly the point:
			// the rotation republishes some recent population between
			// in-flight batches. The ledger reconciles afterwards through
			// failed Removes and fresh Inserts.
			var inserts []engine.EpochInsert
			eng.WalkCap(func(code hst.Code, id, capacity int) {
				inserts = append(inserts, engine.EpochInsert{Code: code, ID: id, Cap: capacity})
			})
			epoch++
			if err := eng.SwapEpoch(epoch, tree, 0, inserts); err != nil {
				bad.Add(1)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	if bad.Load() > 0 {
		t.Fatalf("%d unexpected operation failures", bad.Load())
	}
	if u, n := eng.CapacityUnits(), eng.Len(); u != n {
		t.Errorf("CapacityUnits %d ≠ Len %d for capacity-1 workers after churn", u, n)
	}
}
