// pombm-sim runs the deterministic event-driven churn simulator
// (internal/sim) against the assignment stack.
//
// Usage (each mode's -h lists its flags):
//
//	pombm-sim list
//	pombm-sim run -scenario churn-heavy -seed 1 -json        # canonical report on stdout
//	pombm-sim run -scenario all -crosscheck                  # verify vs the reference
//	pombm-sim run -scenario all -driver cluster -nodes 3     # 3-backend coordinator, same bytes
//	pombm-sim run -scenario all -policy batch-optimal        # override the assignment policy
//
// The -json report is a pure function of (scenario, seed, driver):
// two runs with the same flags emit byte-identical output. Wall-clock
// throughput goes to stderr only, so it never perturbs the report.
// With -crosscheck, any decision that breaks the reference — the
// sequential nearest-worker rule, or a window-solving policy's per-window
// reference matching — makes the process exit non-zero.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"github.com/pombm/pombm/internal/cli"
	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/sim"
)

func main() {
	cli.Main("pombm-sim",
		cli.Mode{Name: "list", Summary: "list the scenario presets", Flags: listMode},
		cli.Mode{Name: "run", Summary: "run scenarios through the simulator", Flags: runMode},
	)
}

func listMode(*flag.FlagSet) func([]string) error {
	return func([]string) error {
		for _, name := range sim.Scenarios() {
			sc, _ := sim.Preset(name)
			fmt.Printf("%-12s %4.0fs  %-8s batch=%gs  %d workers up front\n",
				name, sc.Duration, sc.Spatial, sc.BatchWindow, sc.InitialWorkers)
		}
		return nil
	}
}

func runMode(fs *flag.FlagSet) func([]string) error {
	var (
		scenario = fs.String("scenario", "", "scenario preset to run, comma-separated list, or 'all'")
		seed     = fs.Uint64("seed", 1, "root random seed")
		driver   = fs.String("driver", "platform", "system under test: platform (one in-process server) or cluster (coordinator over in-process nodes)")
		nodes    = fs.Int("nodes", 0, "cluster driver backend count (0 = 3)")
		duration = fs.Float64("duration", 0, "override the preset's simulated duration (seconds)")
		policy   = fs.String("policy", "", "override the preset's assignment policy (greedy, capacity-greedy, batch-optimal[:k=<n>]); a non-capacity-aware override resets the preset's worker capacity to 1")
		check    = fs.Bool("crosscheck", false, "verify every assignment against the sequential brute-force rule, and each batch window of a window-solving policy against a reference min-cost matching of its tasks' k nearest; violations exit non-zero")
		asJSON   = fs.Bool("json", false, "emit the canonical deterministic JSON report on stdout")
	)
	return func([]string) error {
		switch {
		case *scenario == "":
			return cli.Usagef("-scenario is required (the list mode prints the presets)")
		case !(*duration >= 0) || math.IsInf(*duration, 1):
			return cli.Usagef("-duration must be a finite number of seconds >= 0 (0 keeps the preset's), got %v", *duration)
		}
		override, err := engine.PolicyByName(*policy)
		if err != nil {
			return cli.Usagef("%v", err)
		}

		names := strings.Split(*scenario, ",")
		if *scenario == "all" {
			names = sim.Scenarios()
		}
		violations := 0
		var reports []*sim.Report
		for _, name := range names {
			sc, err := sim.Preset(name)
			if err != nil {
				return err
			}
			if *duration > 0 {
				sc = sc.WithDuration(*duration)
			}
			if *policy != "" {
				sc.Policy = *policy
				if !override.CapacityAware() {
					// Capacities above 1 (and any skew mix) need a
					// capacity-aware policy.
					sc.Capacity = 0
					sc.CapacitySkew = 0
				}
			}
			report, stats, err := sim.Run(sim.Config{
				Scenario:   sc,
				Seed:       *seed,
				Driver:     sim.Driver(*driver),
				Nodes:      *nodes,
				CrossCheck: *check,
			})
			if err != nil {
				return err
			}
			if *asJSON {
				reports = append(reports, report)
			} else {
				printSummary(report)
			}
			fmt.Fprintf(os.Stderr, "# %s: %d events in %.3fs wall (%.0f events/sec)\n",
				name, report.Events, stats.WallSeconds, stats.EventsPerSec)
			if report.Check != nil {
				violations += report.Check.Violations
				if !report.Check.PoolConsistent {
					violations++
					fmt.Fprintf(os.Stderr, "# %s: POOL INCONSISTENT with sequential reference\n", name)
				}
			}
		}
		if *asJSON {
			// One scenario emits its report object; several emit a JSON
			// array, so the output is always a single valid document. Both
			// forms are byte-deterministic for fixed flags.
			blob, err := marshalReports(reports)
			if err != nil {
				return err
			}
			os.Stdout.Write(blob)
		}
		if *check {
			if violations > 0 {
				return fmt.Errorf("%d cross-check violations", violations)
			}
			fmt.Fprintln(os.Stderr, "# cross-check: all assignments match the sequential rule, and batch-optimal windows their reference matching")
		}
		return nil
	}
}

// marshalReports renders the canonical JSON: the bare report for a single
// scenario, an indented array for a multi-scenario run.
func marshalReports(reports []*sim.Report) ([]byte, error) {
	if len(reports) == 1 {
		return reports[0].JSON()
	}
	blob, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

func printSummary(r *sim.Report) {
	fmt.Printf("scenario %s  seed %d  driver %s  (grid %d², D=%d, c=%d, ε=%g)\n",
		r.Scenario, r.Seed, r.Driver, r.GridCols, r.Depth, r.Degree, r.Epsilon)
	if r.Policy != "" || r.Capacity > 1 {
		fmt.Printf("  policy   %s, worker capacity %d\n", cmp.Or(r.Policy, "greedy"), max(r.Capacity, 1))
	}
	fmt.Printf("  tasks    %d arrived, %d assigned (%.1f%%), %d expired, %d pending at end, mean wait %.2fs\n",
		r.Tasks.Arrived, r.Tasks.Assigned, 100*r.Tasks.AssignmentRate, r.Tasks.Expired, r.Tasks.PendingAtEnd, r.Tasks.MeanWait)
	fmt.Printf("  match    mean level %.3f, mean tree dist %.2f, true dist mean %.2f p50 %.2f p90 %.2f p99 %.2f\n",
		r.Match.MeanLevel, r.Match.MeanTreeDist, r.Match.TrueDist.Mean, r.Match.TrueDist.P50, r.Match.TrueDist.P90, r.Match.TrueDist.P99)
	fmt.Printf("  workers  %d arrived, %d returns, %d departed, %d registrations, utilisation %.1f%%, %d online at end\n",
		r.Workers.Arrived, r.Workers.Returns, r.Workers.Departed, r.Workers.Registrations, 100*r.Workers.Utilisation, r.Workers.OnlineAtEnd)
	if r.Epochs != nil {
		fmt.Printf("  epochs   %d rotations (final epoch %d), %d re-reports, %d workers parked, total ε spent %.1f (lifetime %g/worker)\n",
			r.Epochs.Rotations, r.Epochs.FinalEpoch, r.Epochs.RotatedReports, r.Epochs.ParkedWorkers,
			r.Epochs.BudgetSpent, r.Epochs.BudgetLimit)
	}
	if r.Check != nil {
		fmt.Printf("  check    %d assignments verified, %d violations, pool consistent: %v\n",
			r.Check.Checked, r.Check.Violations, r.Check.PoolConsistent)
	}
}
