// Command benchmark is the repository's benchmark: four lifecycle
// workloads over in-process serving stacks on real loopback listeners,
// driven closed loop, every answer checked, every metric printed by name
// and unit. See README.md in this directory for the metric definitions,
// the layer → metric → workload table, and how to run it; BENCHMARK.json
// at the repository root is the contract a driver runs it under.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"github.com/pombm/pombm/internal/rng"
)

// metricDef declares one metric: its unit, which direction is better and,
// for end-to-end metrics, the share of the baseline's median by which it
// may worsen before a change counts as a regression. BENCHMARK.json repeats
// this table (a test keeps the two in step).
type metricDef struct {
	name, unit, better string
	bound              float64
}

// The timing bounds are the widest the driver's contract allows: on the
// reference box (two shared vCPUs) the host's speed moves by 15–25 % for
// minutes and by more for tens of milliseconds, all workloads together. The
// timings are therefore read off the quieter half of a repetition's
// segments at the host speed a yardstick reads beside them (segments.go,
// yardstick.go); ten runs of one commit then spread 2–12 % between their
// quartiles instead of up to 27 % (README.md, "Steadiness" and "Reference
// box"). The heap metric counts instead of timing, repeats to a fraction
// of a percent and keeps the issue's 2 %. Travel distance is a mean over a
// tape's tasks that differs by a few percent from one lifecycle tape to the
// next; a run reports the median over five tapes, which ten seeds spread
// by up to 1.6 %, so its bound is 5 %, not 2 %.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"task_tput_per_s", "1/s", "higher", 0.25},
	{"task_p50_us", "us", "lower", 0.25},
	{"worker_op_p50_us", "us", "lower", 0.25},
	{"travel_dist_mean", "dist", "lower", 0.05},
	{"heap_bytes_per_worker", "B", "lower", 0.02},
}

var perLayer = []metricDef{
	{name: "privacy.obfuscate_ns", unit: "ns", better: "lower"},
	{name: "hst.build_ms", unit: "ms", better: "lower"},
	{name: "hst.pop_ns", unit: "ns", better: "lower"},
	{name: "hst.insert_ns", unit: "ns", better: "lower"},
	{name: "hst.remove_ns", unit: "ns", better: "lower"},
	{name: "hst.mine_k8_ns", unit: "ns", better: "lower"},
	{name: "hst.arena_bytes_per_worker", unit: "B", better: "lower"},
	{name: "engine.assign_ns", unit: "ns", better: "lower"},
	{name: "engine.insert_ns", unit: "ns", better: "lower"},
	{name: "engine.remove_ns", unit: "ns", better: "lower"},
	{name: "engine.fallback_share", unit: "1", better: "lower"},
	{name: "engine.shard_skew", unit: "1", better: "lower"},
	{name: "engine.batch64_us_per_task", unit: "us", better: "lower"},
	{name: "engine.batch512_us_per_task", unit: "us", better: "lower"},
	{name: "engine.windows", unit: "count", better: "lower"},
	{name: "engine.swap_ms", unit: "ms", better: "lower"},
	{name: "flow.solve_us_per_window", unit: "us", better: "lower"},
	{name: "wire.encode_ns", unit: "ns", better: "lower"},
	{name: "wire.decode_ns", unit: "ns", better: "lower"},
	{name: "wire.allocs_per_msg", unit: "count", better: "lower"},
	{name: "platform.submit_self_us", unit: "us", better: "lower"},
	{name: "platform.release_self_us", unit: "us", better: "lower"},
	{name: "platform.register_self_us", unit: "us", better: "lower"},
	{name: "platform.transport_us", unit: "us", better: "lower"},
	{name: "platform.conn_reuse_share", unit: "1", better: "higher"},
	{name: "platform.rotate_prepare_ms", unit: "ms", better: "lower"},
	{name: "platform.rotate_commit_ms", unit: "ms", better: "lower"},
	{name: "cluster.coord_self_us", unit: "us", better: "lower"},
	{name: "cluster.node_rtt_us", unit: "us", better: "lower"},
	{name: "cluster.node_handler_us", unit: "us", better: "lower"},
	{name: "cluster.node_transport_us", unit: "us", better: "lower"},
	{name: "cluster.node_reqs_per_task", unit: "count", better: "lower"},
	{name: "cluster.ops_per_envelope", unit: "count", better: "higher"},
	{name: "cluster.root_tier_share", unit: "1", better: "lower"},
	{name: "cluster.rotate_prepare_ms", unit: "ms", better: "lower"},
	{name: "cluster.rotate_commit_ms", unit: "ms", better: "lower"},
	{name: "engine.rung_assign_ns", unit: "ns", better: "lower"},
	{name: "platform.rung_submit_ns", unit: "ns", better: "lower"},
	{name: "platform.rung_handler_ns", unit: "ns", better: "lower"},
	{name: "platform.rung_http_ns", unit: "ns", better: "lower"},
	{name: "cluster.rung_local_ns", unit: "ns", better: "lower"},
	{name: "cluster.rung_http_ns", unit: "ns", better: "lower"},
	{name: "proc.allocs_per_task", unit: "count", better: "lower"},
	{name: "proc.bytes_per_task", unit: "B", better: "lower"},
	{name: "proc.cpu_us_per_task", unit: "us", better: "lower"},
	{name: "proc.gc_pause_p99_us", unit: "us", better: "lower"},
	{name: "proc.gc_cpu_share", unit: "1", better: "lower"},
	{name: "client.task_p90_us", unit: "us", better: "lower"},
	{name: "client.task_p99_us", unit: "us", better: "lower"},
	{name: "client.task_p999_us", unit: "us", better: "lower"},
	{name: "client.rotate_ms", unit: "ms", better: "lower"},
	{name: "client.setup_raw_s", unit: "s", better: "lower"},
	{name: "client.task_tput_raw_per_s", unit: "1/s", better: "higher"},
	{name: "client.task_p50_raw_us", unit: "us", better: "lower"},
	{name: "client.worker_op_p50_raw_us", unit: "us", better: "lower"},
	{name: "bench.host_speed_index", unit: "1", better: "lower"},
	{name: "bench.harness_ns_per_cycle", unit: "ns", better: "lower"},
	{name: "trace.overhead_share", unit: "1", better: "lower"},
}

const (
	defaultSeconds = 10 // BENCHMARK.json's run_seconds
	defaultReps    = 5
)

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds int
	reps    int
	clients int
	trace   bool
	quick   bool
}

// job is one workload's share of an invocation.
type job struct {
	sp          spec
	tape        *Tape
	names       []string
	warm, total int
	rotations   int

	reps              []*repResult
	attempted, failed int64
	failure           string
	digest            uint64
	layer             map[string]float64 // traced invocations
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output; saved
// to a file (… | tail -n 1 > a.json) it is what -check reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all (round-robin)")
		seed         = flag.Uint64("seed", 1, "workload seed: the same seed gives the same tapes")
		seconds      = flag.Int("seconds", defaultSeconds, "timed seconds per workload on the reference box; sizes the tapes")
		trace        = flag.Int("trace", 0, "1 = one untraced and one traced repetition plus the layer probes; prints the per-layer metrics")
		quick        = flag.Bool("quick", false, "cut tapes and populations so the whole suite and its verification take seconds")
		clients      = flag.Int("clients", 0, "closed-loop clients (0 = GOMAXPROCS = min(nproc, 4)); 1 makes every count repeat exactly")
		check        = flag.Bool("check", false, "compare two result files: benchmark -check a.json b.json")
	)
	flag.Parse()
	if *check {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -check a.json b.json")
			return 2
		}
		return checkFiles(flag.Arg(0), flag.Arg(1))
	}

	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	cfg := config{seed: *seed, seconds: *seconds, reps: defaultReps, clients: *clients, trace: *trace != 0, quick: *quick}
	if cfg.clients <= 0 {
		cfg.clients = procs
	}
	if cfg.clients > maxClients {
		fmt.Fprintf(os.Stderr, "benchmark: -clients is at most %d\n", maxClients)
		return 2
	}
	if cfg.quick {
		cfg.seconds, cfg.reps = 1, 1
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1")
		return 2
	}
	var selected []spec
	for _, sp := range specs {
		if *workloadFlag == "all" || *workloadFlag == sp.name {
			selected = append(selected, sp)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s, all)\n", *workloadFlag, strings.Join(workloadNames(), ", "))
		return 2
	}

	fmt.Printf("benchmark: seed %d, %d s per workload, %d repetitions, %d clients, GOMAXPROCS %d, nproc %d, %s\n",
		cfg.seed, cfg.seconds, cfg.reps, cfg.clients, procs, runtime.NumCPU(), runtime.Version())
	res, err := runSuite(selected, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return names
}

// runSuite runs the selected workloads and assembles the result. With one
// workload the metric keys are bare names (the driver's contract); with
// several they are "workload/metric".
func runSuite(selected []spec, cfg config) (*result, error) {
	jobs := make([]*job, len(selected))
	for i, sp := range selected {
		jobs[i] = newJob(sp, cfg)
	}

	// (a) Before any timing: the head of every tape against the brute-force
	// mirror of the sequential rule, with one client.
	var lifecycleDigests []uint64
	for _, j := range jobs {
		if err := j.precheck(cfg); err != nil {
			return nil, err
		}
		if j.sp.tape == "lifecycle" {
			lifecycleDigests = append(lifecycleDigests, j.digest)
		}
	}
	if len(lifecycleDigests) == 2 && lifecycleDigests[0] != lifecycleDigests[1] {
		jobs[0].failed++
		jobs[0].failure = "serve-lifecycle and cluster-lifecycle disagree on the pre-check's assignment digest"
	}

	// The layer probes and the ladder run first, on a heap that holds
	// nothing but the tapes: after the repetitions, their spans and codes
	// would tax every collection the allocation-heavy rungs trigger.
	shared := map[string]float64{}
	if cfg.trace {
		if err := probeLayers(cfg.seed, cfg.quick, shared); err != nil {
			return nil, err
		}
		attempted, failed, failure, err := probeLadder(cfg.seed, cfg.quick, shared)
		if err != nil {
			return nil, err
		}
		jobs[0].attempted += attempted
		jobs[0].failed += failed
		if jobs[0].failure == "" {
			jobs[0].failure = failure
		}
	}

	// Repetitions go round-robin across workloads (W1, W2, …, W1, …), so a
	// noisy minute costs every workload one repetition, not one workload
	// all of them. Repetition 0 plays the seed's tape and each later one the
	// tape of a seed derived from it, so a run's medians are over several
	// tapes: on the lifecycle workloads travel distance differs by a few
	// percent from one tape to the next. A traced invocation plays one
	// untraced and one traced repetition per workload, both on the seed's
	// tape.
	reps := cfg.reps
	if cfg.trace {
		reps = 2
	}
	// One yardstick per client count: its kernels run as many goroutines at
	// once as the workload has clients (batch-window: one).
	yards := map[int]*yardstick{}
	defer func() {
		for _, y := range yards {
			y.close()
		}
	}()
	for _, j := range jobs {
		n := j.clientCount(cfg)
		if yards[n] != nil {
			continue
		}
		y, err := newYardstick(n)
		if err != nil {
			return nil, err
		}
		yards[n] = y
		if _, err := y.chunk(); err != nil { // connections dialled, code paged in
			return nil, err
		}
	}
	for rep := 0; rep < reps; rep++ {
		for _, j := range jobs {
			tape, seed := j.tape, cfg.seed
			if rep > 0 && !cfg.trace {
				seed = rng.New(cfg.seed).DeriveN("repetition", rep).Seed()
				tape = GenerateTape(seed, j.sp.tape, j.sp.workers, j.total, j.sp.churnEvery)
			}
			r, err := runRep(j.sp, tape, j.names, repOpts{
				seed: seed, clients: j.clientCount(cfg), traced: cfg.trace && rep == 1, yard: yards[j.clientCount(cfg)],
				rotations: j.rotations, warm: j.warm, total: j.total,
			})
			if err != nil {
				return nil, err
			}
			j.reps = append(j.reps, r)
			j.attempted += r.attempted
			j.failed += r.failed
			if j.failure == "" {
				j.failure = r.failure
			}
		}
	}

	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, j := range jobs {
		prefix := ""
		if len(jobs) > 1 {
			prefix = j.sp.name + "/"
		}
		var timed []float64
		for _, r := range j.reps {
			timed = append(timed, float64(r.timedNs)/1e9)
		}
		fmt.Printf("\n%s: %d workers × %d unit(s), %d + %d cycles per repetition (timed region %.2f s), tape sha256:%s, pre-check digest %016x\n",
			j.sp.name, j.tape.Workers, j.sp.capacity, j.warm, j.total-j.warm, median(timed), j.tape.Digest[:16], j.digest)
		if cfg.trace {
			if err := j.traced(shared); err != nil {
				return nil, err
			}
			for _, m := range perLayer {
				v := j.layer[m.name]
				fmt.Printf("  %-32s %s %s\n", m.name, formatFloat(v), m.unit)
				res.Metrics[prefix+m.name] = metricValue{Value: v, Unit: m.unit}
			}
		} else {
			for _, m := range endToEnd {
				vals := make([]float64, len(j.reps))
				for i, r := range j.reps {
					vals[i] = r.e2e[m.name]
				}
				sort.Float64s(vals)
				v := median(vals)
				fmt.Printf("  %-24s %s %s  (min %s, max %s, n %d; %s is better, bound %.2f)\n",
					m.name, formatFloat(v), m.unit, formatFloat(vals[0]), formatFloat(vals[len(vals)-1]), len(vals), m.better, m.bound)
				res.Metrics[prefix+m.name] = metricValue{Value: v, Unit: m.unit}
			}
			// What the clock read before the host's speed was taken out.
			raw := func(name string) float64 {
				vals := make([]float64, len(j.reps))
				for i, r := range j.reps {
					vals[i] = r.layer[name]
				}
				return median(vals)
			}
			fmt.Printf("  as clocked, whole timed region: setup %.4g s, %.6g tasks/s, task p50 %.4g us, worker op p50 %.4g us; host speed index %.3f\n",
				raw("client.setup_raw_s"), raw("client.task_tput_raw_per_s"), raw("client.task_p50_raw_us"), raw("client.worker_op_p50_raw_us"), raw("bench.host_speed_index"))
		}
		share := float64(j.failed) / float64(max(j.attempted, 1))
		fmt.Printf("  %-24s %s  (%d failed of %d operations attempted)\n", "failed_share", formatFloat(share), j.failed, j.attempted)
		if j.failure != "" {
			fmt.Printf("  FAILED: %s\n", j.failure)
			res.Correct = false
		}
		res.Attempted += j.attempted
		res.Failed += j.failed
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	fmt.Println()
	return res, nil
}

// newJob sizes and generates one workload's tape.
func newJob(sp spec, cfg config) *job {
	j := &job{sp: sp, rotations: rotations}
	if cfg.quick {
		j.sp.workers, j.rotations = sp.quickWorkers, 1
	}
	j.warm, j.total = tapeCycles(j.sp, cfg.seconds, cfg.reps)
	j.tape = GenerateTape(cfg.seed, j.sp.tape, j.sp.workers, j.total, j.sp.churnEvery)
	j.names = make([]string, j.tape.Workers+j.tape.Churn)
	for w := range j.names {
		j.names[w] = workerName(w)
	}
	return j
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// clientCount is the workload's client rule: C closed-loop clients, except
// batch-window, which one driver feeds.
func (j *job) clientCount(cfg config) int {
	if j.sp.name == "batch-window" {
		return 1
	}
	return cfg.clients
}

// precheck replays the head of the tape with one client on a fresh stack
// against the brute-force mirror (exact under greedy, feasibility under
// batch-optimal) and audits conservation.
func (j *job) precheck(cfg config) error {
	st, err := buildStack(j.sp, nil)
	if err != nil {
		return err
	}
	defer st.close()
	// A cycle is at least two operations (the task and the hand-back).
	cycles := precheckOps / 2
	if cfg.quick {
		cycles /= 4
	}
	r, err := j.precheckOn(st, cfg.seed, min(cycles, j.total))
	if err != nil {
		return err
	}
	j.attempted += r.pool.attempted.Load()
	j.failed += r.pool.failed.Load()
	j.failure = r.firstFailure()
	j.digest = r.digest.Sum64()
	return nil
}

// precheckOn runs the pre-check's cycles against the given stack.
func (j *job) precheckOn(st *stack, seed uint64, cycles int) (*run, error) {
	pub, err := st.publication()
	if err != nil {
		return nil, err
	}
	codes, err := obfuscate(pub, seed, "tape", j.tape.Points)
	if err != nil {
		return nil, err
	}
	r := &run{sp: j.sp, tape: j.tape, st: st, codes: codes, names: j.names, epoch: pub.Epoch,
		pool:   newPool(j.tape.Workers, j.tape.Churn, j.sp.capacity),
		chk:    newMirror(pub.Tree, j.tape.Workers+j.tape.Churn),
		digest: fnv.New64a()}
	if err := r.load(); err != nil {
		return nil, err
	}
	c := st.newClient(0)
	r.phase([]*client{c}, 0, cycles)
	r.conserve([]*client{c})
	return r, nil
}

// traced folds an invocation's untraced repetition, traced repetition and
// the shared probes into the workload's per-layer metrics, and writes the
// trace.
func (j *job) traced(shared map[string]float64) error {
	plain, tr := j.reps[0], j.reps[1]
	j.layer = map[string]float64{}
	for k, v := range shared {
		j.layer[k] = v
	}
	for k, v := range plain.layer {
		j.layer[k] = v
	}
	// Counts that only the traced repetition's seams see.
	if v, ok := tr.layer["platform.conn_reuse_share"]; ok {
		j.layer["platform.conn_reuse_share"] = v
	}
	analyzeSpans(j.sp, tr.spans, tr.timedLo, tr.timedHi, tr.tasks, j.layer)
	base := plain.e2e["task_tput_per_s"]
	j.layer["trace.overhead_share"] = (base - tr.e2e["task_tput_per_s"]) / base
	path, err := writeTrace(filepath.Join("benchmark", "out"), j.sp.name, tr.spans)
	if err != nil {
		return err
	}
	fmt.Printf("  trace: %d spans (%d dropped) in %s; traced task p50 as clocked %s us\n", len(tr.spans), tr.dropped, path, formatFloat(tr.layer["client.task_p50_raw_us"]))
	return nil
}

// ---- -check ----

// checkFiles compares two result files metric by metric against the
// end-to-end bounds, b against a, and prints the pairs that fail.
func checkFiles(pathA, pathB string) int {
	load := func(path string) (*result, error) {
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(blob, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	a, err := load(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := load(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	bad := checkResults(a, b, os.Stdout)
	if !a.Correct || !b.Correct || a.Failed+b.Failed > 0 {
		fmt.Printf("FAIL  failed operations: %d in %s, %d in %s\n", a.Failed, pathA, b.Failed, pathB)
		bad++
	}
	if bad > 0 {
		return 1
	}
	fmt.Println("ok: every end-to-end metric of every workload is within its bound")
	return 0
}

// checkResults prints every end-to-end metric present in both results with
// b's worsening relative to a, and returns how many exceed their bound or
// are missing from b.
func checkResults(a, b *result, w io.Writer) (bad int) {
	keys := make([]string, 0, len(a.Metrics))
	for k := range a.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		name := k[strings.LastIndex(k, "/")+1:]
		var def *metricDef
		for i := range endToEnd {
			if endToEnd[i].name == name {
				def = &endToEnd[i]
			}
		}
		if def == nil {
			continue
		}
		va := a.Metrics[k].Value
		mb, ok := b.Metrics[k]
		if !ok {
			fmt.Fprintf(w, "FAIL  %-44s missing from the second file\n", k)
			bad++
			continue
		}
		worse := (mb.Value - va) / va
		if def.better == "higher" {
			worse = -worse
		}
		verdict := "ok  "
		if worse > def.bound {
			verdict = "FAIL"
			bad++
		}
		fmt.Fprintf(w, "%s  %-44s %14s → %-14s %+7.2f %% worse (bound %.0f %%)\n",
			verdict, k, formatFloat(va), formatFloat(mb.Value), 100*worse, 100*def.bound)
	}
	return bad
}
