// pombm-gen generates POMBM workloads as CSV files — synthetic Table II
// workloads or days of the synthetic Chengdu dataset — and summarises
// existing workload files. The CSV format ("kind,x,y"; tasks in arrival
// order) is what the library's ReadCSV accepts, so deployments can also
// bring their own data.
//
// Usage:
//
//	pombm-gen -kind synthetic -tasks 3000 -workers 5000 -out day.csv
//	pombm-gen -kind chengdu -day 7 -workers 8000 -out chengdu7.csv
//	pombm-gen -describe day.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

func main() {
	var (
		kind     = flag.String("kind", "synthetic", "generator: synthetic or chengdu")
		tasks    = flag.Int("tasks", workload.DefaultNumTasks, "number of tasks (synthetic)")
		workers  = flag.Int("workers", workload.DefaultNumWorkers, "number of workers")
		mu       = flag.Float64("mu", workload.DefaultMu, "location mean (synthetic)")
		sigma    = flag.Float64("sigma", workload.DefaultSigma, "location std dev (synthetic)")
		day      = flag.Int("day", 1, "day 1..30 (chengdu)")
		seed     = flag.Uint64("seed", 2020, "random seed")
		out      = flag.String("out", "", "output file (default stdout)")
		describe = flag.String("describe", "", "summarise an existing workload CSV and exit")
	)
	flag.Parse()

	if *describe != "" {
		describeFile(*describe)
		return
	}

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
		err = fmt.Errorf("unknown kind %q (want synthetic or chengdu)", *kind)
	}
	if err != nil {
		fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := inst.WriteCSV(w); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %d workers, %d tasks to %s\n",
			len(inst.Workers), len(inst.Tasks), *out)
	}
}

func describeFile(path string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	inst, err := workload.ReadCSV(f)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workers: %d\n", len(inst.Workers))
	fmt.Printf("tasks:   %d\n", len(inst.Tasks))
	fmt.Printf("region:  %v\n", inst.Region)
	// Density snapshot: tasks per cell of an 8 × 8 grid over the region.
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
	cw := geo.Centroid(inst.Workers)
	ct := geo.Centroid(inst.Tasks)
	fmt.Printf("worker centroid: %v\ntask centroid:   %v\n", cw, ct)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pombm-gen:", err)
	os.Exit(1)
}
