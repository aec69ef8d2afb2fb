// pombm-bench reproduces the paper's tables and figures from the command
// line. Each experiment id names one panel (fig6a..fig6l, fig7a..fig7l,
// fig8a..fig8h, table1) or an ablation (abl-walk, abl-index, abl-grid,
// abl-cr, abl-em); see EXPERIMENTS.md for the index.
//
// Usage:
//
//	pombm-bench -list
//	pombm-bench -exp fig7a
//	pombm-bench -exp all -scale 0.2 -reps 3 -out results/
//	pombm-bench -exp fig7b -scale 0.05        # scalability sweep, reduced
//	pombm-bench -instance day.csv -eps 0.6    # your own workload file
//	pombm-bench -procs 4 -repeat 3 -exp fig7a # pinned, repeated for stable numbers
//	pombm-bench -enginebench -workers 16384 -tasks 8192 -goroutines 1,4,8
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/pombm/pombm/internal/benchfmt"
	"github.com/pombm/pombm/internal/core"
	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/experiments"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/match"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

func main() {
	var (
		exp    = flag.String("exp", "", "experiment id to run, or 'all'")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		seed   = flag.Uint64("seed", 2020, "root random seed")
		reps   = flag.Int("reps", 5, "repetitions per sweep point (paper: 10)")
		scale  = flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper sizes)")
		grid   = flag.Int("grid", 64, "predefined grid columns (N = grid²)")
		trie   = flag.Bool("trie", false, "use the O(D) trie matcher instead of the paper's scan")
		quick  = flag.Bool("quick", false, "shorthand for -scale 0.1 -reps 2 -grid 16")
		out    = flag.String("out", "", "directory for CSV output (optional)")
		format = flag.String("format", "text", "stdout format: text, csv, or markdown")
		file   = flag.String("instance", "", "run the distance pipelines on a workload CSV file instead of a registered experiment")
		eps    = flag.Float64("eps", 0.6, "privacy budget for -instance runs")
		par    = flag.Int("parallel", 0, "client-side obfuscation parallelism for -instance runs (0/1 = sequential)")
		svg    = flag.Bool("svg", false, "also write an SVG chart per experiment into -out")

		// Benchmark hygiene: pin the scheduler and repeat runs so numbers
		// are comparable across machines and PRs.
		procs  = flag.Int("procs", 0, "pin GOMAXPROCS to this value (0 = runtime default)")
		repeat = flag.Int("repeat", 1, "repeat each run this many times, reporting per-run wall time and the best")

		// Profilers, for digging into where a regression lives. Mutex and
		// block sampling carry overhead: profile runs are for attribution,
		// not for the numbers that land in a snapshot.
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		mutexProf = flag.String("mutexprofile", "", "write a mutex-contention profile to this file (enables mutex sampling)")
		blockProf = flag.String("blockprofile", "", "write a goroutine-blocking profile to this file (enables block sampling)")

		// Engine throughput benchmark (scan vs locked trie vs sharded engine).
		engBench   = flag.Bool("enginebench", false, "run the assignment-engine throughput benchmark and exit")
		engWorkers = flag.Int("workers", 16384, "enginebench: available workers per run")
		engTasks   = flag.Int("tasks", 8192, "enginebench: tasks assigned per run")
		engShards  = flag.Int("shards", 0, "engine shard count for -enginebench and -soak runs (0 = engine default)")
		engGors    = flag.String("goroutines", "1,4,8", "enginebench: comma-separated goroutine counts")
		engJSON    = flag.String("json", "BENCH_engine.json", "enginebench: write machine-readable results to this file ('' disables)")
		history    = flag.String("history", "", "enginebench: append the -json snapshot (with git SHA + timestamp) to this append-only history file after the run")

		// Scale soak lane (see soak.go): million-worker populations, churn,
		// snapshot round trips, and rotation peak-memory accounting.
		soakName = flag.String("soak", "", "run the scale soak lane with this suite (smoke-100k, soak-1m … soak-10m on the engine; platform-20k, platform-1m on platform.Server) and exit")
		soakJSON = flag.String("soakjson", "", "soak: write the machine-readable soak report to this file ('' = SOAK_<suite>.json)")
	)
	flag.Parse()

	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}
	if *repeat < 1 {
		*repeat = 1
	}
	stopProfiles, err := startProfiles(*cpuProf, *mutexProf, *blockProf)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	if *soakName != "" {
		if err := runSoak(*soakName, *grid, *engShards, *seed, *soakJSON); err != nil {
			fatal(err)
		}
		return
	}

	if *engBench {
		if err := runEngineBench(*grid, *engWorkers, *engTasks, *engShards, *repeat, *engGors, *seed, *engJSON); err != nil {
			fatal(err)
		}
		if *history != "" {
			if err := appendBenchHistory(*history, *engJSON); err != nil {
				fatal(err)
			}
		}
		return
	}

	if *file != "" {
		opt := core.Options{Epsilon: *eps, Parallelism: *par}
		if err := runOnFile(*file, *grid, *seed, *repeat, opt); err != nil {
			fatal(err)
		}
		return
	}

	if *list {
		for _, id := range experiments.IDs() {
			title, _ := experiments.Title(id)
			fmt.Printf("%-10s %s\n", id, title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "pombm-bench: -exp is required (use -list to see ids)")
		flag.Usage()
		os.Exit(2)
	}

	cfg := experiments.Config{Seed: *seed, Reps: *reps, Scale: *scale, GridCols: *grid, UseTrie: *trie}
	if *quick {
		cfg.Scale, cfg.Reps, cfg.GridCols = 0.1, 2, 16
	}
	runner, err := experiments.NewRunner(cfg)
	if err != nil {
		fatal(err)
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		fig, err := runner.Run(id)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		// Extra repeats re-run the same experiment for timing stability; the
		// figure from the first run is the one reported and written out.
		best := time.Since(start)
		for r := 1; r < *repeat; r++ {
			t0 := time.Now()
			if _, err := runner.Run(id); err != nil {
				fatal(fmt.Errorf("%s: %w", id, err))
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		if *repeat > 1 {
			fmt.Fprintf(os.Stderr, "# %s best of %d runs: %v\n", id, *repeat, best.Round(time.Millisecond))
		}
		switch *format {
		case "csv":
			fmt.Print(fig.CSV())
		case "markdown":
			fmt.Printf("### %s — %s\n\n%s\n", fig.ID, fig.Title, fig.Markdown())
		default:
			fmt.Println(fig.Render())
		}
		fmt.Fprintf(os.Stderr, "# %s finished in %v\n", id, time.Since(start).Round(time.Millisecond))
		if *out != "" {
			if err := writeCSV(*out, fig); err != nil {
				fatal(err)
			}
			if *svg {
				path := filepath.Join(*out, fig.ID+".svg")
				if err := os.WriteFile(path, []byte(fig.SVG()), 0o644); err != nil {
					fatal(err)
				}
				fmt.Fprintf(os.Stderr, "# wrote %s\n", path)
			}
		}
	}
}

func writeCSV(dir string, fig interface {
	CSV() string
}) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, ok := fig.(*experiments.Figure)
	if !ok {
		return fmt.Errorf("pombm-bench: unexpected figure type")
	}
	path := filepath.Join(dir, f.ID+".csv")
	if err := os.WriteFile(path, []byte(f.CSV()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "# wrote %s\n", path)
	return nil
}

// runOnFile runs TBF and the baselines on a user-supplied workload,
// keeping the fastest of repeat runs per algorithm for stable numbers.
func runOnFile(path string, gridCols int, seed uint64, repeat int, opt core.Options) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	inst, err := workload.ReadCSV(f)
	if err != nil {
		return err
	}
	fmt.Printf("instance: %d workers, %d tasks, region %v\n",
		len(inst.Workers), len(inst.Tasks), inst.Region)
	env, err := core.NewEnv(inst.Region, gridCols, gridCols, rng.New(seed))
	if err != nil {
		return err
	}
	fmt.Printf("published HST: N=%d, D=%d, c=%d; ε=%g\n\n",
		env.Tree.NumPoints(), env.Tree.Depth(), env.Tree.Degree(), opt.Epsilon)
	fmt.Printf("%-8s %16s %10s %14s %12s %12s %12s\n",
		"alg", "total distance", "matched", "assign time", "ns/op", "tasks/sec", "memory (MB)")
	for _, alg := range []core.Algorithm{core.AlgLapGR, core.AlgLapHG, core.AlgTBF} {
		var res *core.Result
		for r := 0; r < repeat; r++ {
			rr, err := core.Run(alg, env, inst, opt, rng.New(seed).Derive(string(alg)))
			if err != nil {
				return err
			}
			if res == nil || rr.AssignTime < res.AssignTime {
				res = rr
			}
		}
		// AssignTime accumulates over every submitted task (failed assigns
		// included), so per-op figures divide by submissions, not matches.
		nsPerOp, tasksPerSec := throughput(len(inst.Tasks), res.AssignTime)
		fmt.Printf("%-8s %16.1f %10d %14s %12.0f %12.0f %12.2f\n",
			res.Algorithm, res.TotalDistance, res.Matched,
			res.AssignTime.Round(time.Microsecond), nsPerOp, tasksPerSec,
			float64(res.MemoryBytes)/1e6)
	}
	return nil
}

// throughput converts (tasks, total assignment time) into ns/op and
// tasks/sec; zero-safe.
func throughput(tasks int, d time.Duration) (nsPerOp, tasksPerSec float64) {
	if tasks == 0 || d <= 0 {
		return 0, 0
	}
	return float64(d.Nanoseconds()) / float64(tasks), float64(tasks) / d.Seconds()
}

// gitSHA resolves the current revision: the VCS stamp baked into the
// binary when available, the working tree's HEAD otherwise.
func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// appendBenchHistory stamps the snapshot at jsonPath with the current
// revision and time and appends it as one line of the append-only bench
// trajectory (see benchfmt.AppendHistory).
func appendBenchHistory(historyPath, jsonPath string) error {
	if jsonPath == "" {
		return fmt.Errorf("-history needs -json (the snapshot is what gets appended)")
	}
	blob, err := os.ReadFile(jsonPath)
	if err != nil {
		return err
	}
	var rep benchfmt.Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		return fmt.Errorf("%s: %w", jsonPath, err)
	}
	if err := benchfmt.AppendHistory(historyPath, benchfmt.HistoryEntry{
		GitSHA:   gitSHA(),
		UnixTime: time.Now().Unix(),
		Report:   &rep,
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "# appended %s snapshot to %s\n", jsonPath, historyPath)
	return nil
}

// runEngineBench measures online assignment throughput of the three
// HST-Greedy implementations — the paper's O(D·n) scan, the single-lock
// O(D) trie, and the sharded concurrent engine — at several goroutine
// counts. Workers and tasks are uniformly random leaves of a grid HST. The
// scan baseline runs only single-threaded (it is not concurrency-safe and
// exists as the complexity reference). With jsonPath non-empty the results
// are additionally written as machine-readable JSON.
func runEngineBench(gridCols, workers, tasks, shards, repeat int, goroutines string, seed uint64, jsonPath string) error {
	gors, err := parseInts(goroutines)
	if err != nil {
		return fmt.Errorf("-goroutines: %w", err)
	}
	grid, err := geo.NewGrid(workload.SyntheticRegion, gridCols, gridCols)
	if err != nil {
		return err
	}
	tree, err := hst.Build(grid.Points(), rng.New(seed))
	if err != nil {
		return err
	}
	src := rng.New(seed).Derive("enginebench")
	randCodes := func(n int, s *rng.Source) []hst.Code {
		out := make([]hst.Code, n)
		for i := range out {
			b := make([]byte, tree.Depth())
			for j := range b {
				b[j] = byte(s.Intn(tree.Degree()))
			}
			out[i] = hst.Code(b)
		}
		return out
	}
	workerCodes := randCodes(workers, src.Derive("workers"))
	taskCodes := randCodes(tasks, src.Derive("tasks"))

	baseProcs := runtime.GOMAXPROCS(0)
	fmt.Printf("enginebench: N=%d D=%d c=%d, %d workers, %d tasks, GOMAXPROCS=%d, NumCPU=%d, best of %d\n\n",
		tree.NumPoints(), tree.Depth(), tree.Degree(), workers, tasks, baseProcs, runtime.NumCPU(), repeat)
	fmt.Printf("%-20s %11s %9s %6s %12s %12s %14s\n", "impl", "goroutines", "shards", "procs", "ns/op", "allocs/op", "tasks/sec")

	out := benchfmt.Report{
		GitSHA:     gitSHA(),
		GOMAXPROCS: baseProcs,
		NumCPU:     runtime.NumCPU(),
		Workers:    workers,
		Tasks:      tasks,
		Repeat:     repeat,
	}

	// setup builds the worker pool (untimed); the returned run assigns the
	// task batch and is the only region measured. Heap allocations are
	// sampled around the best-timed region via MemStats deltas. policy
	// tags the rows produced by a non-default assignment policy.
	//
	// A row claiming g goroutines is only a parallel measurement when g
	// cores are actually schedulable, so GOMAXPROCS is raised to g for the
	// row when the machine has the cores, and the row is marked capped
	// when it does not — a capped multi-goroutine row measures scheduler
	// interleaving, and downstream tooling must not read it as a scaling
	// number.
	report := func(impl string, g, sh int, policy string, setup func() (func() error, error)) error {
		rowProcs := baseProcs
		if g > rowProcs && runtime.NumCPU() > rowProcs {
			rowProcs = min(g, runtime.NumCPU())
		}
		// A -procs pin can push GOMAXPROCS past the physical core count;
		// oversubscription is still not parallelism, so capped considers
		// both.
		capped := g > min(rowProcs, runtime.NumCPU())
		if rowProcs != baseProcs {
			runtime.GOMAXPROCS(rowProcs)
			defer runtime.GOMAXPROCS(baseProcs)
		}
		best := time.Duration(0)
		allocs := 0.0
		var ms0, ms1 runtime.MemStats
		for r := 0; r < repeat; r++ {
			run, err := setup()
			if err != nil {
				return err
			}
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			if err := run(); err != nil {
				return err
			}
			d := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			if best == 0 || d < best {
				best = d
				allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(tasks)
			}
		}
		nsPerOp, tasksPerSec := throughput(tasks, best)
		shCol := "-"
		if sh > 0 {
			shCol = strconv.Itoa(sh)
		}
		note := ""
		if capped {
			note = "  (capped)"
		}
		fmt.Printf("%-20s %11d %9s %6d %12.0f %12.2f %14.0f%s\n",
			impl, g, shCol, rowProcs, nsPerOp, allocs, tasksPerSec, note)
		out.Results = append(out.Results, benchfmt.Record{
			Benchmark:   fmt.Sprintf("%s/goroutines=%d", impl, g),
			Goroutines:  g,
			Shards:      sh,
			Policy:      policy,
			GOMAXPROCS:  rowProcs,
			Capped:      capped,
			NsPerOp:     nsPerOp,
			AllocsPerOp: allocs,
			TasksPerSec: tasksPerSec,
		})
		return nil
	}

	// Paper-faithful scan, single-threaded reference.
	if err := report("scan", 1, 0, "", func() (func() error, error) {
		g := match.NewHSTGreedyScan(tree, workerCodes)
		return func() error {
			for _, t := range taskCodes {
				g.Assign(t)
			}
			return nil
		}, nil
	}); err != nil {
		return err
	}

	clamp, err := engine.New(tree, shards)
	if err != nil {
		return err
	}
	shardCount := clamp.Shards()

	for _, g := range gors {
		// Single global lock around the O(D) trie: the old server path.
		if err := report("trie-lock", g, 0, "", func() (func() error, error) {
			idx := hst.NewLeafIndexDegree(tree.Depth(), tree.Degree())
			for i, c := range workerCodes {
				if err := idx.Insert(c, i); err != nil {
					return nil, err
				}
			}
			var mu sync.Mutex
			return func() error {
				var wg sync.WaitGroup
				for k := 0; k < g; k++ {
					wg.Add(1)
					go func(k int) {
						defer wg.Done()
						for i := k; i < len(taskCodes); i += g {
							mu.Lock()
							idx.PopNearest(taskCodes[i])
							mu.Unlock()
						}
					}(k)
				}
				wg.Wait()
				return nil
			}, nil
		}); err != nil {
			return err
		}
		// Sharded engine, batch API split across goroutines.
		if err := report("engine", g, shardCount, "", func() (func() error, error) {
			e, err := engine.New(tree, shards)
			if err != nil {
				return nil, err
			}
			for i, c := range workerCodes {
				if err := e.Insert(c, i); err != nil {
					return nil, err
				}
			}
			return func() error {
				var wg sync.WaitGroup
				chunk := (len(taskCodes) + g - 1) / g
				for k := 0; k < g; k++ {
					lo := k * chunk
					hi := min(lo+chunk, len(taskCodes))
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
				return nil
			}, nil
		}); err != nil {
			return err
		}
	}
	// Assignment-policy rows: the capacitated sequential rule (one slot
	// serving four tasks) and the batch-optimal window solver (windows of
	// 256 tasks), each at every goroutine count. Batch-optimal locks the
	// whole shard set per window, so concurrent submitters serialize on the
	// solve itself; the multi-goroutine rows measure that hand-off cost
	// plus the per-shard parallel candidate mining inside each window.
	for _, g := range gors {
		if err := report("policy-capacity", g, shardCount, "capacity-greedy", func() (func() error, error) {
			e, err := engine.NewWithOptions(tree, shards, engine.WithPolicy(engine.CapacityGreedy()))
			if err != nil {
				return nil, err
			}
			for i, c := range workerCodes {
				if err := e.InsertCapEpoch(c, i, 4, 0); err != nil {
					return nil, err
				}
			}
			return func() error {
				var wg sync.WaitGroup
				chunk := (len(taskCodes) + g - 1) / g
				for k := 0; k < g; k++ {
					lo := k * chunk
					hi := min(lo+chunk, len(taskCodes))
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
				return nil
			}, nil
		}); err != nil {
			return err
		}
	}
	// policy-batchopt-cap4 is the same window loop over the population a
	// capacity-aware deployment actually has — every worker carrying four
	// units — and with the lifecycle closed: each window's matched units are
	// handed back before the next, so every window mines, dedups and solves
	// over multi-unit candidates.
	for _, row := range []struct {
		impl     string
		capacity int
	}{{"policy-batchopt", 1}, {"policy-batchopt-cap4", 4}} {
		for _, g := range gors {
			if err := report(row.impl, g, shardCount, "batch-optimal:k=8", func() (func() error, error) {
				e, err := engine.NewWithOptions(tree, shards, engine.WithPolicy(engine.BatchOptimal(0)))
				if err != nil {
					return nil, err
				}
				for i, c := range workerCodes {
					if err := e.InsertCapEpoch(c, i, row.capacity, 0); err != nil {
						return nil, err
					}
				}
				return func() error {
					const window = 256
					var wg sync.WaitGroup
					errs := make([]error, g)
					chunk := (len(taskCodes) + g - 1) / g
					for k := 0; k < g; k++ {
						lo := k * chunk
						hi := min(lo+chunk, len(taskCodes))
						if lo >= hi {
							break
						}
						wg.Add(1)
						go func(k int, batch []hst.Code) {
							defer wg.Done()
							for lo := 0; lo < len(batch); lo += window {
								ids, _ := e.AssignBatch(batch[lo:min(lo+window, len(batch))])
								if row.capacity == 1 {
									continue // the historical row: no hand-back in its timed region
								}
								for _, id := range ids {
									if id < 0 {
										continue
									}
									if err := e.AddCapacityEpoch(workerCodes[id], id, 0); err != nil {
										errs[k] = err
										return
									}
								}
							}
						}(k, taskCodes[lo:hi])
					}
					wg.Wait()
					return errors.Join(errs...)
				}, nil
			}); err != nil {
				return err
			}
		}
	}
	if jsonPath != "" {
		blob, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "# wrote %s\n", jsonPath)
	}
	return nil
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("goroutine count %d", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no goroutine counts")
	}
	return out, nil
}

// startProfiles turns on the requested runtime profilers and returns a
// stop func that writes every profile out; call it once, after the
// measured work. Mutex and block sampling are enabled only when their
// output file is requested, so plain benchmark runs stay overhead-free.
func startProfiles(cpu, mutex, block string) (stop func(), err error) {
	var stops []func()
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "# wrote %s\n", cpu)
		})
	}
	dump := func(profile, path string) func() {
		return func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pombm-bench:", err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup(profile).WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "pombm-bench:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "# wrote %s\n", path)
		}
	}
	if mutex != "" {
		// Sample roughly one in five contended mutex events: cheap enough
		// to leave on for a whole bench run, dense enough to rank the
		// engine's shard locks.
		runtime.SetMutexProfileFraction(5)
		stops = append(stops, dump("mutex", mutex))
	}
	if block != "" {
		// One sample per ~µs of blocking: catches lock convoys and
		// channel waits without drowning the run in samples.
		runtime.SetBlockProfileRate(1000)
		stops = append(stops, dump("block", block))
	}
	return func() {
		for _, s := range stops {
			s()
		}
	}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pombm-bench:", strings.TrimSpace(err.Error()))
	os.Exit(1)
}
