// pombm-bench reproduces the paper's tables and figures from the command
// line, and carries the tools around them. Each experiment id names one
// panel (fig6a..fig6l, fig7a..fig7l, fig8a..fig8h, table1) or an ablation
// (abl-walk, abl-index, abl-grid, abl-cr, abl-em, abl-chain, abl-road); the
// list mode prints them all.
//
// Usage (each mode's -h lists its flags):
//
//	pombm-bench list
//	pombm-bench fig fig7a
//	pombm-bench fig all -scale 0.2 -reps 3 -out results/ # a CSV and an SVG per figure
//	GOMAXPROCS=4 pombm-bench fig fig7a -repeat 3         # pinned, repeated for stable numbers
//	pombm-bench gen -tasks 3000 -workers 5000 -out day.csv
//	pombm-bench instance -eps 0.6 day.csv                # your own workload file
//	pombm-bench soak platform-100k -soakjson soak.json
//	pombm-bench tree -grid 8 -dot tree.dot
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

	"github.com/pombm/pombm/internal/cli"
	"github.com/pombm/pombm/internal/experiments"
)

func main() {
	cli.Main("pombm-bench",
		cli.Mode{Name: "list", Summary: "list the experiment ids and their titles", Flags: listMode},
		cli.Mode{Name: "fig", Args: "ID... | all", Summary: "run experiments and print their tables", Flags: figMode},
		cli.Mode{Name: "instance", Args: "FILE", Summary: "run the distance pipelines on a workload CSV file", Flags: instanceMode},
		cli.Mode{Name: "soak", Args: "SUITE", Summary: "run a scale soak suite through platform.Server (platform-100k, platform-1m, platform-10m)", Flags: soakMode},
		cli.Mode{Name: "gen", Summary: "write a synthetic or Chengdu workload as CSV", Flags: genMode},
		cli.Mode{Name: "tree", Summary: "build an HST over a point grid and report its structure", Flags: treeMode},
	)
}

func listMode(*flag.FlagSet) func([]string) error {
	return func([]string) error {
		for _, id := range experiments.IDs() {
			title, _ := experiments.Title(id)
			fmt.Printf("%-10s %s\n", id, title)
		}
		return nil
	}
}

// measured holds the flags of a mode whose runs are measured: the
// profilers, and -repeat where the mode repeats its runs.
type measured struct {
	repeat            int
	cpu, mutex, block string
}

func measure(fs *flag.FlagSet, repeats bool) *measured {
	m := &measured{repeat: 1}
	if repeats {
		fs.IntVar(&m.repeat, "repeat", 1, "repeat each run this many times, reporting per-run wall time and the best")
	}
	fs.StringVar(&m.cpu, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&m.mutex, "mutexprofile", "", "write a mutex-contention profile to this file (enables mutex sampling)")
	fs.StringVar(&m.block, "blockprofile", "", "write a goroutine-blocking profile to this file (enables block sampling)")
	return m
}

func figMode(fs *flag.FlagSet) func([]string) error {
	var (
		seed   = fs.Uint64("seed", 2020, "root random seed")
		reps   = fs.Int("reps", 5, "repetitions per sweep point (paper: 10)")
		scale  = fs.Float64("scale", 1.0, "workload scale factor (1.0 = paper sizes)")
		grid   = fs.Int("grid", 64, "predefined grid columns (N = grid²)")
		quick  = fs.Bool("quick", false, "-scale 0.1 -reps 2 -grid 16, for whichever of them is not given")
		out    = fs.String("out", "", "directory to write each figure's CSV and SVG into (optional)")
		format = fs.String("format", "text", "stdout format: text, csv, or markdown")
		m      = measure(fs, true)
	)
	return func(ids []string) error {
		switch {
		case len(ids) == 0:
			return cli.Usagef("name the experiment ids, or all (the list mode prints them)")
		case *format != "text" && *format != "csv" && *format != "markdown":
			return cli.Usagef("unknown -format %q (text, csv or markdown)", *format)
		}
		if len(ids) == 1 && ids[0] == "all" {
			ids = experiments.IDs()
		}
		if *quick {
			given := map[string]bool{}
			fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
			for name, v := range map[string]string{"scale": "0.1", "reps": "2", "grid": "16"} {
				if !given[name] {
					fs.Set(name, v)
				}
			}
		}
		stop, err := m.start()
		if err != nil {
			return err
		}
		defer stop()
		runner, err := experiments.NewRunner(experiments.Config{Seed: *seed, Reps: *reps, Scale: *scale, GridCols: *grid})
		if err != nil {
			return err
		}
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return err
			}
		}
		for _, id := range ids {
			start := time.Now()
			fig, err := runner.Run(id)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			// Extra repeats re-run the same experiment for timing stability;
			// the figure from the first run is the one reported and written.
			best := time.Since(start)
			for r := 1; r < m.repeat; r++ {
				t0 := time.Now()
				if _, err := runner.Run(id); err != nil {
					return fmt.Errorf("%s: %w", id, err)
				}
				best = min(best, time.Since(t0))
			}
			if m.repeat > 1 {
				fmt.Fprintf(os.Stderr, "# %s best of %d runs: %v\n", id, m.repeat, best.Round(time.Millisecond))
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
			if *out == "" {
				continue
			}
			for _, f := range [][2]string{{".csv", fig.CSV()}, {".svg", fig.SVG()}} {
				path := filepath.Join(*out, fig.ID+f[0])
				if err := os.WriteFile(path, []byte(f[1]), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "# wrote %s\n", path)
			}
		}
		return nil
	}
}

func soakMode(fs *flag.FlagSet) func([]string) error {
	var (
		seed     = fs.Uint64("seed", 2020, "root random seed")
		grid     = fs.Int("grid", 64, "predefined grid columns (N = grid²)")
		soakJSON = fs.String("soakjson", "", "write the machine-readable soak report to this file ('' = SOAK_<suite>.json)")
		m        = measure(fs, false)
	)
	return func(args []string) error {
		if len(args) != 1 {
			return cli.Usagef("soak takes one suite name")
		}
		suite, err := findSoakSuite(args[0])
		if err != nil {
			return err
		}
		stop, err := m.start()
		if err != nil {
			return err
		}
		defer stop()
		return runPlatformSoak(suite, *grid, *seed, *soakJSON)
	}
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

// start refuses a -repeat below 1 and turns on the requested profilers.
// The caller defers stop, which writes every profile out, so a run that
// fails still writes its profiles — the run one most wants attributed.
// Mutex and block sampling carry overhead, so they are enabled only when
// their output file is requested: profile runs are for attribution, not
// for the numbers that land in a report.
func (m *measured) start() (stop func(), err error) {
	if m.repeat < 1 {
		return nil, cli.Usagef("-repeat must be ≥ 1 (got %d)", m.repeat)
	}
	var stops []func()
	if m.cpu != "" {
		f, err := os.Create(m.cpu)
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
			fmt.Fprintf(os.Stderr, "# wrote %s\n", m.cpu)
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
	if m.mutex != "" {
		// Sample roughly one in five contended mutex events: cheap enough
		// to leave on for a whole bench run, dense enough to rank the
		// engine's and the server's locks.
		runtime.SetMutexProfileFraction(5)
		stops = append(stops, dump("mutex", m.mutex))
	}
	if m.block != "" {
		// One sample per ~µs of blocking: catches lock convoys and
		// channel waits without drowning the run in samples.
		runtime.SetBlockProfileRate(1000)
		stops = append(stops, dump("block", m.block))
	}
	return func() {
		for _, s := range stops {
			s()
		}
	}, nil
}
