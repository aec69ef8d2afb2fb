package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/pombm/pombm/internal/cli"
	"github.com/pombm/pombm/internal/core"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// genMode writes a synthetic Table II workload or a day of the synthetic
// Chengdu dataset as CSV ("kind,x,y"; tasks in arrival order): what
// workload.ReadCSV, and so the instance mode, reads back.
func genMode(fs *flag.FlagSet) func([]string) error {
	var (
		kind    = fs.String("kind", "synthetic", "generator: synthetic or chengdu")
		tasks   = fs.Int("tasks", workload.DefaultNumTasks, "number of tasks (synthetic)")
		workers = fs.Int("workers", workload.DefaultNumWorkers, "number of workers")
		mu      = fs.Float64("mu", workload.DefaultMu, "location mean (synthetic)")
		sigma   = fs.Float64("sigma", workload.DefaultSigma, "location std dev (synthetic)")
		day     = fs.Int("day", 1, "day 1..30 (chengdu)")
		seed    = fs.Uint64("seed", 2020, "random seed")
		out     = fs.String("out", "", "output file (default stdout)")
	)
	return func([]string) error {
		var inst *workload.Instance
		var err error
		switch *kind {
		case "synthetic":
			inst, err = workload.Synthetic(workload.SyntheticParams{
				NumTasks: *tasks, NumWorkers: *workers, Mu: *mu, Sigma: *sigma,
			}, rng.New(*seed))
		case "chengdu":
			inst, err = workload.Chengdu(workload.ChengduParams{
				Day: *day, NumWorkers: *workers,
			}, rng.New(*seed))
		default:
			return cli.Usagef("unknown -kind %q (want synthetic or chengdu)", *kind)
		}
		if err != nil {
			return err
		}
		if *out == "" {
			return inst.WriteCSV(os.Stdout)
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := errors.Join(inst.WriteCSV(f), f.Close()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d workers, %d tasks to %s\n", len(inst.Workers), len(inst.Tasks), *out)
		return nil
	}
}

// describe prints the header of an instance run: the workload's sizes and
// region, its hottest task cell on an 8 × 8 grid, and both centroids.
func describe(inst *workload.Instance) {
	fmt.Printf("workers: %d\ntasks:   %d\nregion:  %v\n", len(inst.Workers), len(inst.Tasks), inst.Region)
	const cells = 8
	if g, err := geo.NewGrid(inst.Region, cells, cells); err == nil && len(inst.Tasks) > 0 {
		counts := make([]int, g.Len())
		hot := 0
		for _, p := range inst.Tasks {
			c := g.Snap(p)
			counts[c]++
			if counts[c] > counts[hot] {
				hot = c
			}
		}
		half := geo.Pt(inst.Region.Width()/(2*cells), inst.Region.Height()/(2*cells))
		fmt.Printf("hottest task cell: %v (%d tasks)\n",
			geo.NewRect(g.Point(hot).Sub(half), g.Point(hot).Add(half)), counts[hot])
	}
	fmt.Printf("worker centroid: %v\ntask centroid:   %v\n", geo.Centroid(inst.Workers), geo.Centroid(inst.Tasks))
}

// instanceMode runs TBF and the baselines on a workload file, keeping the
// fastest of -repeat runs per algorithm for stable numbers.
func instanceMode(fs *flag.FlagSet) func([]string) error {
	var (
		seed = fs.Uint64("seed", 2020, "root random seed")
		grid = fs.Int("grid", 64, "predefined grid columns (N = grid²)")
		eps  = fs.Float64("eps", 0.6, "privacy budget ε")
		m    = measure(fs, true)
	)
	return func(args []string) error {
		if len(args) != 1 {
			return cli.Usagef("instance takes one workload CSV file")
		}
		stop, err := m.start()
		if err != nil {
			return err
		}
		defer stop()
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		inst, err := workload.ReadCSV(f)
		if err != nil {
			return err
		}
		describe(inst)
		env, err := core.NewEnv(inst.Region, *grid, *grid, rng.New(*seed))
		if err != nil {
			return err
		}
		fmt.Printf("published HST: N=%d, D=%d, c=%d; ε=%g\n\n",
			env.Tree.NumPoints(), env.Tree.Depth(), env.Tree.Degree(), *eps)
		fmt.Printf("%-8s %16s %10s %14s %12s %12s %12s\n",
			"alg", "total distance", "matched", "assign time", "ns/op", "tasks/sec", "memory (MB)")
		for _, alg := range []core.Algorithm{core.AlgLapGR, core.AlgLapHG, core.AlgTBF} {
			var res *core.Result
			for r := 0; r < m.repeat; r++ {
				rr, err := core.Run(alg, env, inst, core.Options{Epsilon: *eps}, rng.New(*seed).Derive(string(alg)))
				if err != nil {
					return err
				}
				if res == nil || rr.AssignTime < res.AssignTime {
					res = rr
				}
			}
			// AssignTime accumulates over every submitted task (failed assigns
			// included), so per-op figures divide by submissions, not matches.
			var nsPerOp, tasksPerSec float64
			if n, d := len(inst.Tasks), res.AssignTime; n > 0 && d > 0 {
				nsPerOp, tasksPerSec = float64(d.Nanoseconds())/float64(n), float64(n)/d.Seconds()
			}
			fmt.Printf("%-8s %16.1f %10d %14s %12.0f %12.0f %12.2f\n",
				res.Algorithm, res.TotalDistance, res.Matched,
				res.AssignTime.Round(time.Microsecond), nsPerOp, tasksPerSec,
				float64(res.MemoryBytes)/1e6)
		}
		return nil
	}
}
