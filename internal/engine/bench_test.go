package engine_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

// BenchmarkBatchOptimalWindow measures one steady-state batch-optimal
// batch end to end (mine, pad, solve, commit, hand the units back), per
// task, over a capacity-1 and a capacity-4 population, as one window (256
// tasks) and as a long batch (700: three windows back to back). It is the
// layer row under the repository benchmark's batch-window workload, which
// is what CI gates: profile this to see where a window's time goes. The
// capacitated
// case is the one deployments under this policy run (a capacity-aware
// policy capacitates the whole population), and the one whose
// per-candidate capacity reads went unmeasured while capacities sat in a
// map.
func BenchmarkBatchOptimalWindow(b *testing.B) {
	tree := buildTree(b, 64, 9)
	for _, capacity := range []int{1, 4} {
		for _, batchLen := range []int{256, 700} {
			b.Run(fmt.Sprintf("capacity=%d/batch=%d", capacity, batchLen), func(b *testing.B) {
				e, err := engine.NewWithOptions(tree, 0, engine.WithPolicy(engine.BatchOptimal(8)))
				if err != nil {
					b.Fatal(err)
				}
				src := rng.New(33)
				const n = 16384
				codes := make([]hst.Code, n)
				for i := range codes {
					codes[i] = randCode(tree, src)
					if err := e.InsertCapEpoch(codes[i], i, capacity, 0); err != nil {
						b.Fatal(err)
					}
				}
				batch := make([]hst.Code, batchLen)
				runBatch := func() {
					for i := range batch {
						batch[i] = codes[src.Intn(n)]
					}
					ids, _ := e.AssignBatch(batch)
					for _, id := range ids {
						if id >= 0 {
							if err := e.AddCapacityEpoch(codes[id], id, 0); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
				for i := 0; i < 20; i++ {
					runBatch() // reach the scratch pool's high-water mark
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runBatch()
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchLen), "ns/task")
			})
		}
	}
}

// BenchmarkAssignBatchParallel measures greedy AssignBatch throughput at
// several submitter counts and reports each multi-goroutine run's speedup
// over the 1-goroutine run of the same invocation. The gomaxprocs metric
// records how many cores the row actually had: when it is below the
// goroutine count the row is an interleaving measurement, not a scaling
// one, and no speedup is reported.
func BenchmarkAssignBatchParallel(b *testing.B) {
	tree := buildTree(b, 64, 10)
	src := rng.New(55)
	const nWorkers = 16384
	const nTasks = 4096
	workerCodes := make([]hst.Code, nWorkers)
	for i := range workerCodes {
		workerCodes[i] = randCode(tree, src)
	}
	taskCodes := make([]hst.Code, nTasks)
	for i := range taskCodes {
		taskCodes[i] = randCode(tree, src)
	}

	baseline := 0.0 // 1-goroutine ns/task, cached across the sub-benchmarks
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			e, err := engine.New(tree, 0)
			if err != nil {
				b.Fatal(err)
			}
			for i, c := range workerCodes {
				if err := e.Insert(c, i); err != nil {
					b.Fatal(err)
				}
			}
			chunk := (nTasks + g - 1) / g
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for k := 0; k < g; k++ {
					lo := k * chunk
					hi := min(lo+chunk, nTasks)
					if lo >= hi {
						break
					}
					wg.Add(1)
					go func(batch []hst.Code) {
						defer wg.Done()
						e.AssignBatch(batch)
					}(taskCodes[lo:hi])
				}
				wg.Wait()
				b.StopTimer()
				// Refill the pool so every iteration assigns from the same
				// 16384-worker state.
				for id := 0; id < nWorkers; id++ {
					e.Remove(workerCodes[id], id)
				}
				for id, c := range workerCodes {
					if err := e.Insert(c, id); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
			b.StopTimer()
			nsPerTask := float64(b.Elapsed().Nanoseconds()) / float64(b.N*nTasks)
			b.ReportMetric(nsPerTask, "ns/task")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
			if g == 1 {
				baseline = nsPerTask
			} else if baseline > 0 && runtime.GOMAXPROCS(0) >= g && nsPerTask > 0 {
				b.ReportMetric(baseline/nsPerTask, "speedup")
			}
		})
	}
}
