package engine_test

import (
	"math"
	"runtime"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

// TestBatchOptimalAllocsSteadyState pins the batch-optimal window path's
// allocation contract: once the pooled window scratch, the solver arena,
// and the shard freelists have reached their high-water marks, a window
// costs single-digit heap allocations per task (the budget is ≤ 9/task;
// steady state runs far below it — the result slices plus the per-shard
// mining goroutines, amortised over the window).
// A long batch is windows back to back, so its 700 tasks are held to the
// per-task budget of one window's 256.
func TestBatchOptimalAllocsSteadyState(t *testing.T) {
	for _, batchLen := range []int{256, 700} {
		tree := buildTree(t, 16, 9)
		e, err := engine.NewWithOptions(tree, 0, engine.WithPolicy(engine.BatchOptimal(8)))
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(33)
		const n = 1024
		codes := make([]hst.Code, n)
		for i := range codes {
			codes[i] = randCode(tree, src)
			if err := e.Insert(codes[i], i); err != nil {
				t.Fatal(err)
			}
		}
		batch := make([]hst.Code, batchLen)
		fill := func() {
			for i := range batch {
				batch[i] = codes[src.Intn(n)]
			}
		}
		runBatch := func() {
			ids, _ := e.AssignBatch(batch)
			for _, id := range ids {
				if id >= 0 {
					if err := e.Insert(codes[id], id); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		// Warm the scratch pool, solver slabs, warm-potential pages, and shard
		// freelists to their steady-state high-water marks.
		for i := 0; i < 40; i++ {
			fill()
			runBatch()
		}
		fill()
		perTask := testing.AllocsPerRun(200, runBatch) / float64(batchLen)
		if perTask > 9 {
			t.Errorf("batch-optimal batch of %d allocates %.2f/task, want ≤ 9/task", batchLen, perTask)
		}
		// The steady-state figure should in fact be far below the gate: a
		// regression to per-candidate or per-worker allocation shows up as
		// hundreds per window.
		if perTask > 64.0/256 {
			t.Errorf("batch-optimal batch of %d allocates %.3f/task, want ≤ 64 per 256 tasks", batchLen, perTask)
		}
	}
}

// TestSingleHomeWindowMinesInline pins the fan-out rule: a window whose
// tasks are all homed on one shard has no mining to overlap, so it must
// mine on the caller's goroutine however many cores there are — spawning
// the one goroutine and parking behind it is pure overhead. Goroutines
// cost allocations (at least one per spawn), so the window must allocate
// what it does at GOMAXPROCS=1, where fan-out is off by rule; a window
// spread over the shards is the control that the probe sees a fan-out when
// there is one. Half an allocation per window absorbs the runtime's own
// background mallocs; comparing minima over rounds absorbs the rest (see
// allocs).
func TestSingleHomeWindowMinesInline(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratches at random, which swamps the count")
	}
	tree := buildTree(t, 16, 9)
	e, err := engine.NewWithOptions(tree, 0, engine.WithPolicy(engine.BatchOptimal(8)))
	if err != nil {
		t.Fatal(err)
	}
	if e.Shards() < 2 {
		t.Skip("needs a tree whose top level splits")
	}
	src := rng.New(41)
	const n = 1024
	codes := make([]hst.Code, n)
	for i := range codes {
		codes[i] = randCode(tree, src)
		if err := e.Insert(codes[i], i); err != nil {
			t.Fatal(err)
		}
	}
	var oneHome, spread []hst.Code
	for _, c := range codes {
		if len(spread) < 64 {
			spread = append(spread, c)
		}
		if len(oneHome) < 64 && c[0] == codes[0][0] {
			oneHome = append(oneHome, c)
		}
	}
	allocs := func(procs int, batch []hst.Code) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		run := func() {
			ids, _ := e.AssignBatch(batch)
			for _, id := range ids {
				if id >= 0 {
					if err := e.Insert(codes[id], id); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for i := 0; i < 20; i++ {
			run()
		}
		// Counted by hand: testing.AllocsPerRun pins GOMAXPROCS to 1. And
		// counted as the least of several rounds: at GOMAXPROCS=2 the test's
		// goroutine can migrate to the other P, whose sync.Pool local is
		// empty, and the fresh window scratch it then builds (some 90
		// mallocs, once) reads as 1.8 a window over one round of 50. Noise
		// of that kind only ever adds, so the minimum is the window's own
		// count.
		const rounds, runs = 5, 20
		least := math.Inf(1)
		for r := 0; r < rounds; r++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			least = min(least, float64(after.Mallocs-before.Mallocs)/runs)
		}
		return least
	}
	if one, two := allocs(1, oneHome), allocs(2, oneHome); two > one+0.5 {
		t.Errorf("single-home window allocates %.2f at GOMAXPROCS=2, %.2f at 1: it fanned out", two, one)
	}
	if one, two := allocs(1, spread), allocs(2, spread); two < one+0.5 {
		t.Errorf("spread window allocates %.2f at GOMAXPROCS=2, %.2f at 1: the probe cannot see a fan-out", two, one)
	}
}
