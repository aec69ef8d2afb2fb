package pombm_test

// One benchmark per table/figure of the paper (deliverable d): each runs
// the corresponding experiment end-to-end at reduced scale through the same
// harness as cmd/pombm-bench and reports the headline series value as a
// custom metric, so `go test -bench=.` regenerates every panel's pipeline.
// Full-scale series come from cmd/pombm-bench.
//
// Micro-benchmarks for the performance-critical primitives (HST build,
// mechanism samplers, matcher implementations, the offline optimum) follow
// at the bottom; the scan-vs-trie and walk-vs-enumerate ablations live next
// to their packages (internal/match, experiment abl-walk).

import (
	"fmt"
	"sync"
	"testing"

	"github.com/pombm/pombm"
	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/experiments"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/match"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/privacy"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// benchFigure runs one experiment per iteration at smoke scale and reports
// the last series' final value (TBF for paper figures) as "series".
func benchFigure(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Config{Seed: 2020, Reps: 1, Scale: 0.02, GridCols: 16}
	var last float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.NewRunner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		fig, err := r.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		s := fig.Series[len(fig.Series)-1]
		last = s.Values[len(s.Values)-1]
	}
	b.ReportMetric(last, "series")
}

func BenchmarkTable1(b *testing.B) { benchFigure(b, "table1") }

func BenchmarkFig6a(b *testing.B) { benchFigure(b, "fig6a") }
func BenchmarkFig6b(b *testing.B) { benchFigure(b, "fig6b") }
func BenchmarkFig6c(b *testing.B) { benchFigure(b, "fig6c") }
func BenchmarkFig6d(b *testing.B) { benchFigure(b, "fig6d") }
func BenchmarkFig6e(b *testing.B) { benchFigure(b, "fig6e") }
func BenchmarkFig6f(b *testing.B) { benchFigure(b, "fig6f") }
func BenchmarkFig6g(b *testing.B) { benchFigure(b, "fig6g") }
func BenchmarkFig6h(b *testing.B) { benchFigure(b, "fig6h") }
func BenchmarkFig6i(b *testing.B) { benchFigure(b, "fig6i") }
func BenchmarkFig6j(b *testing.B) { benchFigure(b, "fig6j") }
func BenchmarkFig6k(b *testing.B) { benchFigure(b, "fig6k") }
func BenchmarkFig6l(b *testing.B) { benchFigure(b, "fig6l") }

func BenchmarkFig7a(b *testing.B) { benchFigure(b, "fig7a") }
func BenchmarkFig7b(b *testing.B) { benchFigure(b, "fig7b") }
func BenchmarkFig7c(b *testing.B) { benchFigure(b, "fig7c") }
func BenchmarkFig7d(b *testing.B) { benchFigure(b, "fig7d") }
func BenchmarkFig7e(b *testing.B) { benchFigure(b, "fig7e") }
func BenchmarkFig7f(b *testing.B) { benchFigure(b, "fig7f") }
func BenchmarkFig7g(b *testing.B) { benchFigure(b, "fig7g") }
func BenchmarkFig7h(b *testing.B) { benchFigure(b, "fig7h") }
func BenchmarkFig7i(b *testing.B) { benchFigure(b, "fig7i") }
func BenchmarkFig7j(b *testing.B) { benchFigure(b, "fig7j") }
func BenchmarkFig7k(b *testing.B) { benchFigure(b, "fig7k") }
func BenchmarkFig7l(b *testing.B) { benchFigure(b, "fig7l") }

func BenchmarkFig8a(b *testing.B) { benchFigure(b, "fig8a") }
func BenchmarkFig8b(b *testing.B) { benchFigure(b, "fig8b") }
func BenchmarkFig8c(b *testing.B) { benchFigure(b, "fig8c") }
func BenchmarkFig8d(b *testing.B) { benchFigure(b, "fig8d") }
func BenchmarkFig8e(b *testing.B) { benchFigure(b, "fig8e") }
func BenchmarkFig8f(b *testing.B) { benchFigure(b, "fig8f") }
func BenchmarkFig8g(b *testing.B) { benchFigure(b, "fig8g") }
func BenchmarkFig8h(b *testing.B) { benchFigure(b, "fig8h") }

// Micro-benchmarks.

func benchGridTree(b *testing.B, cols int) (*geo.Grid, *hst.Tree) {
	b.Helper()
	g, err := geo.NewGrid(workload.SyntheticRegion, cols, cols)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := hst.Build(g.Points(), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	return g, tr
}

func BenchmarkHSTBuild32(b *testing.B) {
	g, err := geo.NewGrid(workload.SyntheticRegion, 32, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hst.Build(g.Points(), rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMechanismWalk(b *testing.B) {
	_, tr := benchGridTree(b, 32)
	m, err := privacy.NewHSTMechanism(tr, 0.6)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(2)
	x := tr.CodeOf(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ObfuscateWalk(x, src)
	}
}

func BenchmarkMechanismDirect(b *testing.B) {
	_, tr := benchGridTree(b, 32)
	m, err := privacy.NewHSTMechanism(tr, 0.6)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(2)
	x := tr.CodeOf(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ObfuscateDirect(x, src)
	}
}

func BenchmarkPlanarLaplaceSample(b *testing.B) {
	lap, err := privacy.NewPlanarLaplace(0.6)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(3)
	p := geo.Pt(100, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lap.ObfuscatePoint(p, src)
	}
}

func BenchmarkOptimal64(b *testing.B) {
	src := rng.New(4)
	const n, m = 64, 96
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, m)
		for j := range cost[i] {
			cost[i][j] = src.Uniform(0, 100)
		}
	}
	dist := func(t, w int) float64 { return cost[t][w] }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := match.Optimal(n, m, dist); err != nil {
			b.Fatal(err)
		}
	}
}

// Assignment throughput benchmarks: the paper's O(D·n) scan, the O(D)
// trie behind one global lock (the old server path), and the concurrent
// engine, each assigning benchTasks random tasks over a pool of
// benchWorkers random workers split across 1/4/8 goroutines. The reported
// tasks/sec metric is the headline number; ns/op counts one full batch
// (refill excluded via timer control).
const (
	benchWorkers = 16384
	benchTasks   = 8192
)

func benchCodes(b *testing.B, tr *hst.Tree, n int, label string) []hst.Code {
	b.Helper()
	src := rng.New(9).Derive(label)
	out := make([]hst.Code, n)
	for i := range out {
		bs := make([]byte, tr.Depth())
		for j := range bs {
			bs[j] = byte(src.Intn(tr.Degree()))
		}
		out[i] = hst.Code(bs)
	}
	return out
}

// benchAssignConcurrent times `assign the tasks split across g goroutines
// over a freshly refilled pool` once per iteration. newPool rebuilds the
// pool (untimed); run consumes one chunk of tasks on one goroutine.
func benchAssignConcurrent(b *testing.B, g int, tasks []hst.Code, newPool func() func([]hst.Code)) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		run := newPool()
		b.StartTimer()
		var wg sync.WaitGroup
		chunk := (len(tasks) + g - 1) / g
		for k := 0; k < g; k++ {
			lo := k * chunk
			hi := lo + chunk
			if hi > len(tasks) {
				hi = len(tasks)
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				run(tasks[lo:hi])
			}(lo, hi)
		}
		wg.Wait()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*float64(len(tasks))/b.Elapsed().Seconds(), "tasks/sec")
}

// Shared across benchmark cases; initialised lazily by benchAssignSetup.
var (
	benchSetupOnce  sync.Once
	benchTree       *hst.Tree
	benchWorkerPool []hst.Code
	benchTaskSlice  []hst.Code
)

func benchAssignSetup(b *testing.B) {
	b.Helper()
	benchSetupOnce.Do(func() {
		g, err := geo.NewGrid(workload.SyntheticRegion, 32, 32)
		if err != nil {
			b.Fatal(err)
		}
		benchTree, err = hst.Build(g.Points(), rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		benchWorkerPool = benchCodes(b, benchTree, benchWorkers, "workers")
		benchTaskSlice = benchCodes(b, benchTree, benchTasks, "tasks")
	})
}

func BenchmarkAssignScan(b *testing.B) {
	benchAssignSetup(b)
	// The O(D·n) scan is orders of magnitude slower; a reduced task count
	// keeps the benchmark runnable while tasks/sec stays comparable.
	benchAssignConcurrent(b, 1, benchTaskSlice[:512], func() func([]hst.Code) {
		m := match.NewHSTGreedyScan(benchTree, benchWorkerPool)
		return func(tasks []hst.Code) {
			for _, t := range tasks {
				m.Assign(t)
			}
		}
	})
}

func BenchmarkAssignTrieLocked(b *testing.B) {
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			benchAssignSetup(b)
			benchAssignConcurrent(b, g, benchTaskSlice, func() func([]hst.Code) {
				idx := hst.NewLeafIndex(benchTree.Depth())
				for i, c := range benchWorkerPool {
					if err := idx.Insert(c, i); err != nil {
						b.Fatal(err)
					}
				}
				var mu sync.Mutex
				return func(tasks []hst.Code) {
					for _, t := range tasks {
						mu.Lock()
						idx.PopNearest(t)
						mu.Unlock()
					}
				}
			})
		})
	}
}

func BenchmarkEngineAssign(b *testing.B) {
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			benchAssignSetup(b)
			benchAssignConcurrent(b, g, benchTaskSlice, func() func([]hst.Code) {
				e, err := engine.New(benchTree, 0)
				if err != nil {
					b.Fatal(err)
				}
				for i, c := range benchWorkerPool {
					if err := e.Insert(c, i); err != nil {
						b.Fatal(err)
					}
				}
				return func(tasks []hst.Code) {
					for _, t := range tasks {
						e.Assign(t)
					}
				}
			})
		})
	}
}

func BenchmarkEngineAssignBatch(b *testing.B) {
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			benchAssignSetup(b)
			benchAssignConcurrent(b, g, benchTaskSlice, func() func([]hst.Code) {
				e, err := engine.New(benchTree, 0)
				if err != nil {
					b.Fatal(err)
				}
				for i, c := range benchWorkerPool {
					if err := e.Insert(c, i); err != nil {
						b.Fatal(err)
					}
				}
				return func(tasks []hst.Code) {
					e.AssignBatch(tasks)
				}
			})
		})
	}
}

// BenchmarkPolicyGreedy drives the explicit Greedy policy through the
// policy seam: its figures must match BenchmarkEngineAssign's, pinning that
// the seam adds nothing to the hot path.
func BenchmarkPolicyGreedy(b *testing.B) {
	benchPolicy(b, engine.Greedy(), 1)
}

// BenchmarkPolicyCapacityGreedy is the capacitated sequential rule: every
// worker slot carries four units, so pops mostly decrement in place instead
// of repairing the trie.
func BenchmarkPolicyCapacityGreedy(b *testing.B) {
	benchPolicy(b, engine.CapacityGreedy(), 4)
}

func benchPolicy(b *testing.B, pol engine.Policy, capacity int) {
	benchAssignSetup(b)
	benchAssignConcurrent(b, 1, benchTaskSlice, func() func([]hst.Code) {
		e, err := engine.NewWithOptions(benchTree, 0, engine.WithPolicy(pol))
		if err != nil {
			b.Fatal(err)
		}
		for i, c := range benchWorkerPool {
			if err := e.InsertCapEpoch(c, i, capacity, 0); err != nil {
				b.Fatal(err)
			}
		}
		return func(tasks []hst.Code) {
			for _, t := range tasks {
				e.Assign(t)
			}
		}
	})
}

// BenchmarkPolicyBatchOptimal serves the task stream in windows of 256
// through the restricted min-cost matching (candidate mining + flow solve
// per window).
func BenchmarkPolicyBatchOptimal(b *testing.B) {
	benchAssignSetup(b)
	benchAssignConcurrent(b, 1, benchTaskSlice, func() func([]hst.Code) {
		e, err := engine.NewWithOptions(benchTree, 0, engine.WithPolicy(engine.BatchOptimal(0)))
		if err != nil {
			b.Fatal(err)
		}
		for i, c := range benchWorkerPool {
			if err := e.Insert(c, i); err != nil {
				b.Fatal(err)
			}
		}
		return func(tasks []hst.Code) {
			const window = 256
			for lo := 0; lo < len(tasks); lo += window {
				hi := lo + window
				if hi > len(tasks) {
					hi = len(tasks)
				}
				e.AssignBatch(tasks[lo:hi])
			}
		}
	})
}

// The index rows: hst.LeafIndex alone, over the repository benchmark's
// population shape — the 64×64 published tree, ε = 0.6, workers uniform and
// tasks half from its hotspot, every code obfuscated the way an agent does it
// (internal/hst cannot import the mechanism, so the rows live here). They use
// only calls the index has had since PR 6, so the same file times a parent
// commit's index for a base-against-head pair.
var indexBench struct {
	once    sync.Once
	tree    *hst.Tree
	workers []hst.Code // 262,144 uniform; a smaller row takes a prefix
	tasks   []hst.Code // 65,536, half hotspot
	moves   []hst.Code // 4,096 uniform relocation targets
}

func indexBenchSetup(b *testing.B) {
	b.Helper()
	indexBench.once.Do(func() {
		const side = 64
		grid, err := geo.NewGrid(workload.SyntheticRegion, side, side)
		if err != nil {
			b.Fatal(err)
		}
		tree, err := hst.Build(grid.Points(), rng.New(7).Derive("server-hst"))
		if err != nil {
			b.Fatal(err)
		}
		ob, err := platform.NewObfuscator(platform.Publication{Tree: tree, Region: workload.SyntheticRegion,
			Cols: side, Rows: side, Epsilon: workload.DefaultEpsilon, Epoch: engine.FirstEpoch}, 11)
		if err != nil {
			b.Fatal(err)
		}
		uniform := workload.UniformSampler(workload.SyntheticRegion)
		hotspot := workload.NormalSampler(60, 12, workload.SyntheticRegion)
		codes := func(label string, n int, sample workload.PointSampler) []hst.Code {
			src, pts := rng.New(13).Derive(label), make([]geo.Point, n)
			for i := range pts {
				pts[i] = sample(src)
			}
			return ob.ObfuscateBatch(pts)
		}
		indexBench.tree = tree
		indexBench.workers = codes("workers", 262144, uniform)
		indexBench.moves = codes("moves", 4096, uniform)
		indexBench.tasks = codes("tasks", 65536, func(src *rng.Source) geo.Point {
			if src.Float64() < 0.5 {
				return hotspot(src)
			}
			return uniform(src)
		})
	})
}

// loadedIndex returns an index over the first n workers and the (mutable)
// code each one sits at.
func loadedIndex(b *testing.B, n int) (*hst.LeafIndex, []hst.Code) {
	b.Helper()
	indexBenchSetup(b)
	at := append([]hst.Code(nil), indexBench.workers[:n]...)
	idx := hst.NewLeafIndexDegree(indexBench.tree.Depth(), indexBench.tree.Degree())
	for id, c := range at {
		if err := idx.Insert(c, id); err != nil {
			b.Fatal(err)
		}
	}
	return idx, at
}

// BenchmarkIndexChurn is the engine's steady state seen from one index: a
// task pops its nearest worker, the worker comes back where it was, and
// every sixteenth cycle a worker is withdrawn and reports from a new leaf.
func BenchmarkIndexChurn(b *testing.B) {
	for _, n := range []int{16384, 262144} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			idx, at := loadedIndex(b, n)
			tasks, moves := indexBench.tasks, indexBench.moves
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, _, ok := idx.PopNearest(tasks[i%len(tasks)])
				if !ok {
					b.Fatal("pop on a stocked index failed")
				}
				if err := idx.Insert(at[id], id); err != nil {
					b.Fatal(err)
				}
				if i%16 == 0 {
					w := (i / 16 * 7919) % n
					if !idx.Remove(at[w], w) {
						b.Fatal("remove of a live worker failed")
					}
					at[w] = moves[i/16%len(moves)]
					if err := idx.Insert(at[w], w); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkIndexLoad is a population load: an empty engine over the index
// rows' tree takes every worker through InsertEpoch, as a workload's set-up
// does. Growth is the only allocation a load makes, so an item arena that
// copies itself as it grows shows in B/op as well as in ns/op.
func BenchmarkIndexLoad(b *testing.B) {
	b.Run("workers=262144", func(b *testing.B) {
		indexBenchSetup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, err := engine.New(indexBench.tree, 0)
			if err != nil {
				b.Fatal(err)
			}
			for id, c := range indexBench.workers {
				if err := e.InsertEpoch(c, id, engine.FirstEpoch); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkIndexMineK8 is batch-optimal's candidate mine: the eight nearest
// workers of a task, nothing consumed.
func BenchmarkIndexMineK8(b *testing.B) {
	for _, n := range []int{16384, 65536, 262144} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			idx, _ := loadedIndex(b, n)
			tasks := indexBench.tasks
			refs := make([]hst.CandidateRef, 0, engine.DefaultBatchTopK)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refs = idx.NearestKRef(tasks[i%len(tasks)], engine.DefaultBatchTopK, refs[:0])
			}
			if len(refs) != engine.DefaultBatchTopK {
				b.Fatalf("mined %d candidates, want %d", len(refs), engine.DefaultBatchTopK)
			}
		})
	}
}

// BenchmarkServerReleaseMove is the served operation batch-window makes
// most: an in-process platform.Server under batch-optimal(8) over the index
// rows' tree, 16,384 workers of capacity 4, each op a Release that hands a
// task's unit back with a fresh code — the task's own, as batch-window's
// workers reappear where their task was — so the worker's pooled units move
// to the new leaf, mostly within their bucket (the worker was the task's
// tree-nearest). With the timer stopped, a SubmitBatch of 64 tasks takes
// out the units the next 64 releases hand back.
func BenchmarkServerReleaseMove(b *testing.B) {
	indexBenchSetup(b)
	srv, err := platform.NewServer(workload.SyntheticRegion, 64, 64, workload.DefaultEpsilon, 7,
		platform.WithTree(indexBench.tree), platform.WithPolicy(engine.BatchOptimal(8)), platform.WithDefaultCapacity(4))
	if err != nil {
		b.Fatal(err)
	}
	for id, c := range indexBench.workers[:16384] {
		if r := srv.Register(platform.RegisterRequest{WorkerID: fmt.Sprintf("w%d", id), Code: []byte(c)}); !r.OK {
			b.Fatal(r.Reason)
		}
	}
	tasks := make([][]byte, len(indexBench.tasks))
	for i, c := range indexBench.tasks {
		tasks[i] = []byte(c)
	}
	batch := platform.TaskBatchRequest{Tasks: make([]platform.TaskRequest, 64)}
	var out []platform.ReleaseRequest // one Release owed a worker a task took out
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(out) == 0 {
			b.StopTimer()
			for k := range batch.Tasks {
				batch.Tasks[k].Code = tasks[(next+k)%len(tasks)]
			}
			for k, r := range srv.SubmitBatch(batch).Results {
				if r.Assigned {
					out = append(out, platform.ReleaseRequest{WorkerID: r.WorkerID, Code: tasks[(next+k)%len(tasks)]})
				}
			}
			next += len(batch.Tasks)
			b.StartTimer()
		}
		if r := srv.Release(out[len(out)-1]); !r.OK {
			b.Fatal(r.Reason)
		}
		out = out[:len(out)-1]
	}
}

func BenchmarkTBFPipeline(b *testing.B) {
	env, err := pombm.NewEnv(workload.SyntheticRegion, 32, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := pombm.SyntheticInstance(pombm.SyntheticParams{
		NumTasks: 300, NumWorkers: 500, Mu: 100, Sigma: 20,
	}, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pombm.Run(pombm.AlgTBF, env, inst, pombm.Options{Epsilon: 0.6}, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
