// pombm-sim runs the deterministic event-driven churn simulator
// (internal/sim) against the assignment stack.
//
// Usage:
//
//	pombm-sim -list
//	pombm-sim -scenario churn-heavy -seed 1
//	pombm-sim -scenario churn-heavy -seed 1 -json        # canonical report on stdout
//	pombm-sim -scenario all -crosscheck                  # verify vs the reference
//	pombm-sim -scenario all -driver cluster -nodes 3     # 3-backend coordinator, same bytes
//	pombm-sim -scenario capacity-heavy -crosscheck       # capacitated sequential rule
//	pombm-sim -scenario all -policy batch-optimal        # override the assignment policy
//
// The -json report is a pure function of (scenario, seed, driver):
// two runs with the same flags emit byte-identical output. Wall-clock
// throughput goes to stderr only, so it never perturbs the report.
// With -crosscheck, any decision that breaks the reference — the
// sequential nearest-worker rule, or a window-solving policy's per-window
// reference matching — makes the process exit non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/sim"
)

func main() {
	var (
		scenario = flag.String("scenario", "", "scenario preset to run, comma-separated list, or 'all'")
		list     = flag.Bool("list", false, "list scenario presets and exit")
		seed     = flag.Uint64("seed", 1, "root random seed")
		driver   = flag.String("driver", "platform", "system under test: platform (one in-process server) or cluster (coordinator over in-process nodes)")
		nodes    = flag.Int("nodes", 0, "cluster driver backend count (0 = 3)")
		duration = flag.Float64("duration", 0, "override the preset's simulated duration (seconds)")
		policy   = flag.String("policy", "", "override the preset's assignment policy (greedy, capacity-greedy, batch-optimal[:k=<n>]); a non-capacity-aware override resets the preset's worker capacity to 1")
		check    = flag.Bool("crosscheck", false, "verify every assignment against the sequential brute-force rule, and each batch window of a window-solving policy against a reference min-cost matching of its tasks' k nearest; violations exit non-zero")
		asJSON   = flag.Bool("json", false, "emit the canonical deterministic JSON report on stdout")
	)
	flag.Parse()

	var policyOverride engine.Policy
	if *policy != "" {
		p, err := engine.PolicyByName(*policy)
		if err != nil {
			fatal(err)
		}
		policyOverride = p
	}

	if *list {
		for _, name := range sim.Scenarios() {
			sc, _ := sim.Preset(name)
			fmt.Printf("%-12s %4.0fs  %-8s batch=%gs  %d workers up front\n",
				name, sc.Duration, sc.Spatial, sc.BatchWindow, sc.InitialWorkers)
		}
		return
	}
	if *scenario == "" {
		fmt.Fprintln(os.Stderr, "pombm-sim: -scenario is required (use -list to see presets)")
		flag.Usage()
		os.Exit(2)
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
			fatal(err)
		}
		if *duration > 0 {
			sc = sc.WithDuration(*duration)
		}
		if policyOverride != nil {
			sc.Policy = *policy
			if !policyOverride.CapacityAware() {
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
			fatal(err)
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
		// One scenario emits its report object; several emit a JSON array,
		// so the output is always a single valid document. Both forms are
		// byte-deterministic for fixed flags.
		blob, err := marshalReports(reports)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(blob)
	}
	if *check {
		if violations > 0 {
			fmt.Fprintf(os.Stderr, "pombm-sim: %d cross-check violations\n", violations)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "# cross-check: all assignments match the sequential rule, and batch-optimal windows their reference matching")
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
		capacity := r.Capacity
		if capacity == 0 {
			capacity = 1
		}
		policy := r.Policy
		if policy == "" {
			policy = "greedy"
		}
		fmt.Printf("  policy   %s, worker capacity %d\n", policy, capacity)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pombm-sim:", err)
	os.Exit(1)
}
