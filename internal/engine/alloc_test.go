package engine_test

import (
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

// TestAssignZeroAllocSteadyState pins the serving hot path's allocation
// contract: in steady state (assignments balanced by released workers, the
// shard arenas at their high-water mark) Engine.Assign on the fast path
// must not allocate at all.
func TestAssignZeroAllocSteadyState(t *testing.T) {
	tree := buildTree(t, 16, 9)
	e, err := engine.New(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(21)
	const n = 1024
	codes := make([]hst.Code, n)
	for i := range codes {
		codes[i] = randCode(tree, src)
		if err := e.Insert(codes[i], i); err != nil {
			t.Fatal(err)
		}
	}
	// Warm every shard's arenas and freelists through one churn cycle.
	for i := 0; i < 4*n; i++ {
		q := codes[src.Intn(n)]
		if id, _, ok := e.Assign(q); ok {
			if err := e.Insert(codes[id], id); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Querying at a live worker's own code keeps the assignment on the
	// single-shard fast path (LCA level 0 < depth).
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		q := codes[i%n]
		i++
		id, _, ok := e.Assign(q)
		if !ok {
			t.Fatal("assign failed on a populated engine")
		}
		if err := e.Insert(codes[id], id); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Engine.Assign steady state allocates %.1f/op, want 0", allocs)
	}
}

// TestAssignBatchAllocsPerTask pins what a long greedy batch allocates —
// the routed path of batch.go, which no repository-benchmark workload
// reaches — under both sequential policies: in steady state a 4,096-task
// AssignBatch over 16,384 workers costs its result slices and little else
// (3 allocations a batch measured, ~10 under the race detector, whose
// sync.Pool drops scratches at random), not one per pop. The bound is the
// hardware-free half of a benchmark comparison, kept without a baseline.
func TestAssignBatchAllocsPerTask(t *testing.T) {
	tree := buildTree(t, 64, 9)
	const n, batchLen, perTask = 16384, 4096, 0.05
	for _, tc := range []struct {
		name     string
		policy   engine.Policy
		capacity int
	}{
		{"greedy", engine.Greedy(), 1},
		{"capacity-greedy", engine.CapacityGreedy(), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := engine.NewWithOptions(tree, 0, engine.WithPolicy(tc.policy))
			if err != nil {
				t.Fatal(err)
			}
			src := rng.New(21)
			codes := make([]hst.Code, n)
			for i := range codes {
				codes[i] = randCode(tree, src)
				if err := e.InsertCapEpoch(codes[i], i, tc.capacity, 0); err != nil {
					t.Fatal(err)
				}
			}
			batch := make([]hst.Code, batchLen)
			for i := range batch {
				batch[i] = randCode(tree, src)
			}
			// Every matched unit is handed back, so each run assigns from
			// the same population; AllocsPerRun's own first call warms the
			// arenas and the scratch pool.
			allocs := testing.AllocsPerRun(10, func() {
				ids, _ := e.AssignBatch(batch)
				for _, id := range ids {
					if id < 0 {
						t.Fatal("assign failed on a populated engine")
					}
					if err := e.AddCapacityEpoch(codes[id], id, 0); err != nil {
						t.Fatal(err)
					}
				}
			})
			if got := allocs / batchLen; got > perTask {
				t.Errorf("AssignBatch steady state allocates %.3f/task (%.0f a batch), want ≤ %.2f", got, allocs, perTask)
			}
		})
	}
}
