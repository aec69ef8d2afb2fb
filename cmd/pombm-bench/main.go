// pombm-bench reproduces the paper's tables and figures from the command
// line. Each experiment id names one panel (fig6a..fig6l, fig7a..fig7l,
// fig8a..fig8h, table1) or an ablation (abl-walk, abl-index, abl-grid,
// abl-cr, abl-em, abl-chain, abl-road); -list prints them all.
//
// Usage:
//
//	pombm-bench -list
//	pombm-bench -exp fig7a
//	pombm-bench -exp all -scale 0.2 -reps 3 -out results/
//	pombm-bench -exp fig7b -scale 0.05        # scalability sweep, reduced
//	pombm-bench -instance day.csv -eps 0.6    # your own workload file
//	GOMAXPROCS=4 pombm-bench -repeat 3 -exp fig7a # pinned, repeated for stable numbers
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/pombm/pombm/internal/core"
	"github.com/pombm/pombm/internal/experiments"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fatal(err)
	}
}

// run is main's body. It returns its error instead of exiting so that the
// deferred stopProfiles also writes the profiles of a run that fails — the
// run one most wants attributed.
func run() error {
	var (
		exp    = flag.String("exp", "", "experiment id to run, or 'all'")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		seed   = flag.Uint64("seed", 2020, "root random seed")
		reps   = flag.Int("reps", 5, "repetitions per sweep point (paper: 10)")
		scale  = flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper sizes)")
		grid   = flag.Int("grid", 64, "predefined grid columns (N = grid²)")
		quick  = flag.Bool("quick", false, "shorthand for -scale 0.1 -reps 2 -grid 16")
		out    = flag.String("out", "", "directory for CSV output (optional)")
		format = flag.String("format", "text", "stdout format: text, csv, or markdown")
		file   = flag.String("instance", "", "run the distance pipelines on a workload CSV file instead of a registered experiment")
		eps    = flag.Float64("eps", 0.6, "privacy budget for -instance runs")
		svg    = flag.Bool("svg", false, "also write an SVG chart per experiment into -out")

		// Benchmark hygiene: repeat runs so numbers are comparable across
		// machines and PRs (GOMAXPROCS=N pins the scheduler of any Go binary).
		repeat = flag.Int("repeat", 1, "repeat each run this many times, reporting per-run wall time and the best")

		// Profilers, for digging into where a regression lives. Mutex and
		// block sampling carry overhead: profile runs are for attribution,
		// not for the numbers that land in a report.
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		mutexProf = flag.String("mutexprofile", "", "write a mutex-contention profile to this file (enables mutex sampling)")
		blockProf = flag.String("blockprofile", "", "write a goroutine-blocking profile to this file (enables block sampling)")

		// Scale soak lane (see soak.go): million-worker populations through
		// platform.Server, churn, and rotation peak-memory accounting.
		soakName = flag.String("soak", "", "run the scale soak lane through platform.Server with this suite (platform-100k, platform-1m, platform-10m) and exit")
		soakJSON = flag.String("soakjson", "", "soak: write the machine-readable soak report to this file ('' = SOAK_<suite>.json)")
	)
	flag.Parse()

	// A usage refusal exits 2 before anything starts, so no input is
	// silently ignored.
	refuse := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "pombm-bench: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	modes := 0
	for _, set := range []bool{*soakName != "", *file != "", *list, *exp != ""} {
		if set {
			modes++
		}
	}
	switch {
	case modes == 0:
		refuse("-exp is required (use -list to see ids)")
	case modes > 1:
		refuse("-soak, -instance, -list and -exp each pick what runs: give one of them")
	case *format != "text" && *format != "csv" && *format != "markdown":
		refuse("unknown -format %q (text, csv or markdown)", *format)
	case *repeat < 1:
		refuse("-repeat must be ≥ 1 (got %d)", *repeat)
	case *svg && *out == "":
		refuse("-svg writes its charts into -out: give -out too")
	}
	stopProfiles, err := startProfiles(*cpuProf, *mutexProf, *blockProf)
	if err != nil {
		return err
	}
	defer stopProfiles()

	if *soakName != "" {
		return runSoak(*soakName, *grid, *seed, *soakJSON)
	}
	if *file != "" {
		return runOnFile(*file, *grid, *seed, *repeat, core.Options{Epsilon: *eps})
	}
	if *list {
		for _, id := range experiments.IDs() {
			title, _ := experiments.Title(id)
			fmt.Printf("%-10s %s\n", id, title)
		}
		return nil
	}

	cfg := experiments.Config{Seed: *seed, Reps: *reps, Scale: *scale, GridCols: *grid}
	if *quick {
		cfg.Scale, cfg.Reps, cfg.GridCols = 0.1, 2, 16
	}
	runner, err := experiments.NewRunner(cfg)
	if err != nil {
		return err
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		fig, err := runner.Run(id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		// Extra repeats re-run the same experiment for timing stability; the
		// figure from the first run is the one reported and written out.
		best := time.Since(start)
		for r := 1; r < *repeat; r++ {
			t0 := time.Now()
			if _, err := runner.Run(id); err != nil {
				return fmt.Errorf("%s: %w", id, err)
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
				return err
			}
			if *svg {
				path := filepath.Join(*out, fig.ID+".svg")
				if err := os.WriteFile(path, []byte(fig.SVG()), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "# wrote %s\n", path)
			}
		}
	}
	return nil
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
		// engine's and the server's locks.
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
