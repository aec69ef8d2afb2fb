package engine_test

import (
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

// TestLongBatchMatchesChunkedWindows is the definition of a long batch:
// one AssignBatch call over several windows' worth of tasks must produce
// exactly the answers of the same codes submitted window by window as
// separate AssignBatch calls, on a twin engine with its own policy
// instance. The batch drains the pool partway through the last window so
// the empty-pool guard and the trailing Nones are exercised too.
func TestLongBatchMatchesChunkedWindows(t *testing.T) {
	for _, shards := range []int{1, 8, 33} {
		tree := buildTree(t, 16, 70)
		src := rng.New(71)

		const nWorkers = 600
		workers := make([]hst.Code, nWorkers)
		for i := range workers {
			workers[i] = randCode(tree, src)
		}
		build := func() *engine.Engine {
			e, err := engine.NewWithOptions(tree, shards, engine.WithPolicy(engine.BatchOptimal(4)))
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range workers {
				if err := e.Insert(c, i); err != nil {
					t.Fatal(err)
				}
			}
			return e
		}
		eb, es := build(), build()

		const nTasks = 700
		tasks := make([]hst.Code, nTasks)
		for i := range tasks {
			if src.Intn(20) == 0 {
				tasks[i] = hst.Code("malformed")
			} else {
				tasks[i] = randCode(tree, src)
			}
		}

		gotIDs, gotLvls := eb.AssignBatch(tasks)
		var wantIDs, wantLvls []int
		for lo := 0; lo < nTasks; lo += engine.BatchWindowSize {
			hi := lo + engine.BatchWindowSize
			if hi > nTasks {
				hi = nTasks
			}
			ids, lvls := es.AssignBatch(tasks[lo:hi])
			wantIDs = append(wantIDs, ids...)
			wantLvls = append(wantLvls, lvls...)
		}

		for i := range tasks {
			if gotIDs[i] != wantIDs[i] || gotLvls[i] != wantLvls[i] {
				t.Fatalf("shards=%d task %d: long (%d,%d) != chunked (%d,%d)",
					shards, i, gotIDs[i], gotLvls[i], wantIDs[i], wantLvls[i])
			}
		}
		if eb.Len() != es.Len() {
			t.Fatalf("shards=%d: long Len=%d, chunked Len=%d", shards, eb.Len(), es.Len())
		}
		// The restricted top-k matching need not drain the pool fully, but an
		// over-subscribed batch must consume most of it.
		if eb.Len() > nWorkers/2 {
			t.Fatalf("shards=%d: %d tasks left %d of %d workers unassigned",
				shards, nTasks, eb.Len(), nWorkers)
		}
		wantWindows := int64((nTasks + engine.BatchWindowSize - 1) / engine.BatchWindowSize)
		if eb.Windows() != wantWindows || es.Windows() != wantWindows {
			t.Fatalf("shards=%d: Windows long=%d chunked=%d, want %d",
				shards, eb.Windows(), es.Windows(), wantWindows)
		}
	}
}

// TestLongBatchMatchesChunkedCapacity repeats the long-vs-chunked
// differential with capacitated workers, whose units shrink without
// vanishing (a worker consumed by window i stays a candidate, with fewer
// units, for window i+1).
func TestLongBatchMatchesChunkedCapacity(t *testing.T) {
	for _, shards := range []int{8, 33} {
		tree := buildTree(t, 16, 80)
		src := rng.New(81)

		const nWorkers = 300
		type capWorker struct {
			code hst.Code
			cap  int
		}
		workers := make([]capWorker, nWorkers)
		for i := range workers {
			workers[i] = capWorker{randCode(tree, src), 1 + src.Intn(3)}
		}
		build := func() *engine.Engine {
			e, err := engine.NewWithOptions(tree, shards, engine.WithPolicy(engine.BatchOptimal(4)))
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range workers {
				if err := e.InsertCapEpoch(w.code, i, w.cap, engine.FirstEpoch); err != nil {
					t.Fatal(err)
				}
			}
			return e
		}
		eb, es := build(), build()
		units := eb.CapacityUnits()

		nTasks := units + 100 // over-subscribe so the pool drains mid-batch
		tasks := make([]hst.Code, nTasks)
		for i := range tasks {
			tasks[i] = randCode(tree, src)
		}

		gotIDs, gotLvls := eb.AssignBatch(tasks)
		var wantIDs, wantLvls []int
		for lo := 0; lo < nTasks; lo += engine.BatchWindowSize {
			hi := lo + engine.BatchWindowSize
			if hi > nTasks {
				hi = nTasks
			}
			ids, lvls := es.AssignBatch(tasks[lo:hi])
			wantIDs = append(wantIDs, ids...)
			wantLvls = append(wantLvls, lvls...)
		}

		for i := range tasks {
			if gotIDs[i] != wantIDs[i] || gotLvls[i] != wantLvls[i] {
				t.Fatalf("shards=%d task %d: long (%d,%d) != chunked (%d,%d)",
					shards, i, gotIDs[i], gotLvls[i], wantIDs[i], wantLvls[i])
			}
		}
		if eb.CapacityUnits() != es.CapacityUnits() || eb.Len() != es.Len() {
			t.Fatalf("shards=%d: long (units=%d,len=%d) != chunked (units=%d,len=%d)",
				shards, eb.CapacityUnits(), eb.Len(), es.CapacityUnits(), es.Len())
		}
		if eb.CapacityUnits() > units/2 {
			t.Fatalf("shards=%d: over-subscribed batch left %d of %d units", shards, eb.CapacityUnits(), units)
		}
	}
}
