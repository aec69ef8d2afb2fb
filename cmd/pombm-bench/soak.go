// The soak lane loads a city-scale worker population into the engine and
// measures what the per-request benchmarks cannot: steady-state memory per
// worker, GC pause behaviour under churn, snapshot serialize/restore time,
// and the peak extra memory an epoch rotation costs while the population is
// at its largest. It follows bent's split (golang/benchmarks) between the
// suite — what to run: population size and churn shape — and the config —
// how to run it: seed, tree geometry, shard count — so the same suite is
// comparable across machines and revisions.
//
// Churn runs on a virtual tick counter, not wall time: each tick submits a
// fixed number of tasks (each assignment pops a worker, who then re-reports
// with a fresh obfuscated code) and moves a fixed number of idle workers
// (withdraw + re-report). Wall time only ever divides operation counts, so
// a loaded CI machine changes throughput numbers but never the workload.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/epoch"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// soakSuite is the workload half of the suite/config split: how many
// workers, how much churn, how many rotations. Everything here is virtual —
// no field is a duration — so a suite means the same work everywhere.
//
// An engine suite churns for Ticks and then rotates Rotations times. A
// Platform suite (soak_platform.go) drives platform.Server through
// Rotations epochs of Ticks each, and a move is a departure plus an arrival.
//
// ArenaCeiling, where set, is the most index bytes per worker an engine
// suite may hold after churn, ~10 % above what ships on the default config
// (-grid 64, -seed 2020: 12.1 and 9.1 B); the suite fails itself past it.
type soakSuite struct {
	Name           string  `json:"name"`
	Platform       bool    `json:"platform,omitempty"`
	Workers        int     `json:"workers"`
	Ticks          int     `json:"ticks"`
	AssignsPerTick int     `json:"assigns_per_tick"`
	MovesPerTick   int     `json:"moves_per_tick"`
	Rotations      int     `json:"rotations"`
	ArenaCeiling   float64 `json:"arena_ceiling_bytes_per_worker,omitempty"`
}

var soakSuites = []soakSuite{
	{Name: "smoke-100k", Workers: 100_000, Ticks: 60, AssignsPerTick: 256, MovesPerTick: 64, Rotations: 1, ArenaCeiling: 13.3},
	{Name: "soak-1m", Workers: 1_000_000, Ticks: 120, AssignsPerTick: 512, MovesPerTick: 128, Rotations: 2, ArenaCeiling: 9.9},
	{Name: "soak-2m", Workers: 2_000_000, Ticks: 120, AssignsPerTick: 512, MovesPerTick: 128, Rotations: 2},
	{Name: "soak-5m", Workers: 5_000_000, Ticks: 120, AssignsPerTick: 512, MovesPerTick: 128, Rotations: 2},
	{Name: "soak-10m", Workers: 10_000_000, Ticks: 120, AssignsPerTick: 512, MovesPerTick: 128, Rotations: 2},
	{Name: "platform-20k", Platform: true, Workers: 20_000, Ticks: 4, AssignsPerTick: 256, MovesPerTick: 64, Rotations: 50},
	{Name: "platform-1m", Platform: true, Workers: 1_000_000, Ticks: 8, AssignsPerTick: 512, MovesPerTick: 4096, Rotations: 50},
}

// soakConfig is the environment half: everything that can legitimately
// differ between two runs of the same suite.
type soakConfig struct {
	Seed       uint64 `json:"seed"`
	GridCols   int    `json:"grid_cols"`
	Shards     int    `json:"shards"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GitSHA     string `json:"git_sha"`
}

func newSoakConfig(seed uint64, gridCols, shards int) soakConfig {
	return soakConfig{
		Seed:       seed,
		GridCols:   gridCols,
		Shards:     shards,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GitSHA:     gitSHA(),
	}
}

// gcPauseStats summarises the runtime's GC pause histogram over the load
// and churn phases (steady-state churn reuses freelists and rarely
// allocates, so load contributes most cycles). Quantiles are bucket upper
// bounds, so they round pessimistically.
type gcPauseStats struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P90   float64 `json:"p90_seconds"`
	P99   float64 `json:"p99_seconds"`
	Max   float64 `json:"max_seconds"`
}

// soakReport is the machine-readable soak result. Byte sizes are exact;
// heap numbers are ReadMemStats.HeapAlloc after a forced GC, so they count
// live bytes, not allocator slack.
type soakReport struct {
	Suite  soakSuite  `json:"suite"`
	Config soakConfig `json:"config"`

	LoadSeconds       float64 `json:"load_seconds"`
	LoadWorkersPerSec float64 `json:"load_workers_per_sec"`

	// Steady state, measured after the churn phase with writers quiesced:
	// arena_bytes is the engine's structural cost (trie slabs across all
	// shards), steady_heap_bytes the whole process's live heap.
	// load_arena_bytes is the same structural cost straight after the load:
	// churn keeps the population's size and shape, so an index whose
	// footprint follows its live set reads the two alike.
	LoadArenaBytes      int64   `json:"load_arena_bytes"`
	SteadyHeapBytes     int64   `json:"steady_heap_bytes"`
	ArenaBytes          int64   `json:"arena_bytes"`
	HeapBytesPerWorker  float64 `json:"heap_bytes_per_worker"`
	ArenaBytesPerWorker float64 `json:"arena_bytes_per_worker"`
	VmRSSBytes          int64   `json:"vm_rss_bytes,omitempty"`
	VmHWMBytes          int64   `json:"vm_hwm_bytes,omitempty"`

	ChurnSeconds  float64      `json:"churn_seconds"`
	AssignOps     int64        `json:"assign_ops"`
	MoveOps       int64        `json:"move_ops"`
	AssignNsPerOp float64      `json:"assign_ns_per_op"`
	GCPauses      gcPauseStats `json:"gc_pauses"`

	SnapshotBytes        int64   `json:"snapshot_bytes"`
	SnapshotWriteSeconds float64 `json:"snapshot_write_seconds"`
	SnapshotReadSeconds  float64 `json:"snapshot_read_seconds"`
	SnapshotWorkers      int     `json:"snapshot_workers"`

	// Rotation peak memory: extra bytes of live heap the worst rotation
	// held beyond its pre-rotation baseline, sampled concurrently, and that
	// extra as a fraction of the population's arena bytes. The streaming
	// swap contract is ratio < 1 — rotation must not hold a second copy of
	// the population.
	RotateSeconds        []float64 `json:"rotate_seconds"`
	RotatePeakExtraBytes int64     `json:"rotate_peak_extra_bytes"`
	RotatePeakExtraRatio float64   `json:"rotate_peak_extra_ratio"`
}

// codeGen deterministically derives worker id × generation → leaf code, so
// the driver never stores the population's codes: the engine's arenas are
// the only copy, and a rotation can replay the whole next population from
// two integers per worker. Codes are real leaves of the published tree —
// exactly what obfuscation emits — picked by a splitmix64 scramble that is
// independent of the churn rng, so assignment traffic never perturbs
// placement.
type codeGen struct {
	tree *hst.Tree
	seed uint64
}

// code returns the leaf code for one worker stint. The slice aliases the
// tree's stored code for that leaf; the trie copies digits on insert and
// never retains it.
func (g *codeGen) code(id int, gen uint32) hst.Code {
	x := g.seed ^ (uint64(id)+1)*0x9E3779B97F4A7C15 ^ (uint64(gen)+1)<<32
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return g.tree.CodeOf(int(x % uint64(g.tree.NumPoints())))
}

func findSoakSuite(name string) (soakSuite, error) {
	var names []string
	for _, s := range soakSuites {
		if s.Name == name {
			return s, nil
		}
		names = append(names, s.Name)
	}
	return soakSuite{}, fmt.Errorf("unknown soak suite %q (have %s)", name, strings.Join(names, ", "))
}

// runSoak executes one suite end to end: load, churn, steady-state
// measurement, snapshot round trip, rotations under a concurrent heap
// sampler. The report goes to jsonPath ("" = SOAK_<suite>.json) and a
// human summary to stdout.
func runSoak(suiteName string, gridCols, shards int, seed uint64, jsonPath string) error {
	suite, err := findSoakSuite(suiteName)
	if err != nil {
		return err
	}
	if suite.Platform {
		return runPlatformSoak(suite, gridCols, shards, seed, jsonPath)
	}
	grid, err := geo.NewGrid(workload.SyntheticRegion, gridCols, gridCols)
	if err != nil {
		return err
	}
	tree, err := hst.Build(grid.Points(), rng.New(seed))
	if err != nil {
		return err
	}
	eng, err := engine.New(tree, shards)
	if err != nil {
		return err
	}
	rep := soakReport{
		Suite:  suite,
		Config: newSoakConfig(seed, gridCols, eng.Shards()),
	}
	fmt.Printf("soak %s: %d workers over N=%d D=%d c=%d, %d shards, GOMAXPROCS=%d\n",
		suite.Name, suite.Workers, tree.NumPoints(), tree.Depth(), tree.Degree(), eng.Shards(), rep.Config.GOMAXPROCS)

	// Phase 1: load. gens[i] is worker i's code generation — bumped every
	// time the worker re-reports, so id+gen regenerate its current code.
	codes := &codeGen{tree: tree, seed: seed}
	gens := make([]uint32, suite.Workers)
	pausesBefore := readGCPauses()
	t0 := time.Now()
	for i := 0; i < suite.Workers; i++ {
		if err := eng.Insert(codes.code(i, 0), i); err != nil {
			return fmt.Errorf("load worker %d: %w", i, err)
		}
	}
	rep.LoadSeconds = time.Since(t0).Seconds()
	rep.LoadWorkersPerSec = float64(suite.Workers) / rep.LoadSeconds
	rep.LoadArenaBytes = eng.ArenaBytes()
	fmt.Printf("  load: %d workers in %.2fs (%.0f workers/sec), arenas %s\n",
		suite.Workers, rep.LoadSeconds, rep.LoadWorkersPerSec, mb(rep.LoadArenaBytes))

	// Phase 2: churn on the virtual tick counter. Assignments pop the
	// nearest worker to a random task point; the popped worker immediately
	// re-reports under a fresh code (gen+1), keeping the population size
	// fixed while the trie's freelists and dense blocks see real turnover.
	// Moves model idle relocation: withdraw + re-report.
	src := rng.New(seed).Derive("soak")
	taskSrc := src.Derive("tasks")
	moveSrc := src.Derive("moves")
	assignTime := time.Duration(0)
	t0 = time.Now()
	for tick := 0; tick < suite.Ticks; tick++ {
		ta := time.Now()
		for a := 0; a < suite.AssignsPerTick; a++ {
			id, _, ok := eng.Assign(tree.CodeOf(taskSrc.Intn(tree.NumPoints())))
			if !ok {
				return fmt.Errorf("tick %d: assignment failed with %d workers loaded", tick, eng.Len())
			}
			rep.AssignOps++
			gens[id]++
			if err := eng.Insert(codes.code(id, gens[id]), id); err != nil {
				return fmt.Errorf("tick %d: re-report worker %d: %w", tick, id, err)
			}
		}
		assignTime += time.Since(ta)
		for m := 0; m < suite.MovesPerTick; m++ {
			id := moveSrc.Intn(suite.Workers)
			if !eng.Remove(codes.code(id, gens[id]), id) {
				return fmt.Errorf("tick %d: move lost worker %d", tick, id)
			}
			gens[id]++
			if err := eng.Insert(codes.code(id, gens[id]), id); err != nil {
				return fmt.Errorf("tick %d: re-insert moved worker %d: %w", tick, id, err)
			}
			rep.MoveOps++
		}
	}
	rep.ChurnSeconds = time.Since(t0).Seconds()
	rep.GCPauses = gcPauseDelta(pausesBefore, readGCPauses())
	if rep.AssignOps > 0 {
		rep.AssignNsPerOp = float64(assignTime.Nanoseconds()) / float64(rep.AssignOps)
	}
	fmt.Printf("  churn: %d ticks, %d assigns + %d moves in %.2fs (assign+rereport %.0f ns/op)\n",
		suite.Ticks, rep.AssignOps, rep.MoveOps, rep.ChurnSeconds, rep.AssignNsPerOp)
	fmt.Printf("  gc: %d pauses, p50 %s p90 %s p99 %s max %s\n",
		rep.GCPauses.Count, secs(rep.GCPauses.P50), secs(rep.GCPauses.P90), secs(rep.GCPauses.P99), secs(rep.GCPauses.Max))

	// Phase 3: steady state with writers quiesced.
	if eng.Len() != suite.Workers {
		return fmt.Errorf("population drifted: %d workers, want %d", eng.Len(), suite.Workers)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.SteadyHeapBytes = int64(ms.HeapAlloc)
	rep.ArenaBytes = eng.ArenaBytes()
	rep.HeapBytesPerWorker = float64(rep.SteadyHeapBytes) / float64(suite.Workers)
	rep.ArenaBytesPerWorker = float64(rep.ArenaBytes) / float64(suite.Workers)
	rep.VmRSSBytes, rep.VmHWMBytes = readVmStatus()
	fmt.Printf("  steady: heap %s (%.1f B/worker), arenas %s (%.1f B/worker), RSS %s, peak RSS %s\n",
		mb(rep.SteadyHeapBytes), rep.HeapBytesPerWorker, mb(rep.ArenaBytes), rep.ArenaBytesPerWorker,
		mb(rep.VmRSSBytes), mb(rep.VmHWMBytes))
	// The footprint gate. Churn that only ever promotes nodes to wider
	// child forms (or leaks freed slots) shows as arenas growing under a
	// population that did not; a representation that got fatter shows
	// against the suite's ceiling.
	if limit := rep.LoadArenaBytes + rep.LoadArenaBytes/10; rep.ArenaBytes > limit {
		return fmt.Errorf("arenas grew from %d B after load to %d B after churn under a constant population; 10%% allows %d",
			rep.LoadArenaBytes, rep.ArenaBytes, limit)
	}
	if suite.ArenaCeiling > 0 && rep.ArenaBytesPerWorker > suite.ArenaCeiling {
		return fmt.Errorf("arenas hold %.1f B/worker after churn, the suite's ceiling is %.1f", rep.ArenaBytesPerWorker, suite.ArenaCeiling)
	}

	// Phase 4: snapshot round trip through a real file. The write streams
	// (epoch.WriteSnapshot never materialises the worker list); the read
	// restores a full second engine, timed together as "restore".
	if err := soakSnapshot(&rep, eng, shards); err != nil {
		return err
	}
	fmt.Printf("  snapshot: %s written in %.2fs, restored %d workers in %.2fs\n",
		mb(rep.SnapshotBytes), rep.SnapshotWriteSeconds, rep.SnapshotWorkers, rep.SnapshotReadSeconds)

	// Phase 5: epoch rotations under a concurrent heap sampler. Every
	// worker re-reports into the new epoch under a fresh code, replayed
	// from (id, gen+1) — the streaming swap never sees a materialised
	// insert slice, and the sampler catches whatever peak the build holds.
	for r := 0; r < suite.Rotations; r++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		base := ms.HeapAlloc
		stop := make(chan struct{})
		peakCh := make(chan uint64, 1)
		go sampleHeapPeak(stop, peakCh)
		next := eng.Epoch() + 1
		t0 = time.Now()
		err := eng.SwapEpochSeq(next, tree, 0, func(yield func(engine.EpochInsert) bool) {
			for id := 0; id < suite.Workers; id++ {
				if !yield(engine.EpochInsert{Code: codes.code(id, gens[id]+1), ID: id}) {
					return
				}
			}
		})
		d := time.Since(t0)
		close(stop)
		peak := <-peakCh
		if err != nil {
			return fmt.Errorf("rotation to epoch %d: %w", next, err)
		}
		for i := range gens {
			gens[i]++
		}
		extra := int64(peak) - int64(base)
		if extra < 0 {
			extra = 0
		}
		rep.RotateSeconds = append(rep.RotateSeconds, d.Seconds())
		if extra > rep.RotatePeakExtraBytes {
			rep.RotatePeakExtraBytes = extra
		}
		fmt.Printf("  rotate %d: %.2fs, peak extra heap %s\n", next, d.Seconds(), mb(extra))
	}
	if rep.ArenaBytes > 0 {
		rep.RotatePeakExtraRatio = float64(rep.RotatePeakExtraBytes) / float64(rep.ArenaBytes)
	}
	if suite.Rotations > 0 {
		fmt.Printf("  rotation peak extra: %s = %.2fx the population's arena bytes\n",
			mb(rep.RotatePeakExtraBytes), rep.RotatePeakExtraRatio)
		if eng.Len() != suite.Workers {
			return fmt.Errorf("rotation dropped workers: %d, want %d", eng.Len(), suite.Workers)
		}
	}

	return writeSoakReport(jsonPath, suite.Name, &rep)
}

// writeSoakReport writes a suite's machine-readable report to jsonPath
// ("" = SOAK_<suite>.json).
func writeSoakReport(jsonPath, suite string, rep any) error {
	if jsonPath == "" {
		jsonPath = fmt.Sprintf("SOAK_%s.json", suite)
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "# wrote %s\n", jsonPath)
	return nil
}

// soakSnapshot times one snapshot round trip: stream the population to a
// temp file, read it back, rebuild an engine, check nothing was lost. The
// restored engine and parsed state are dropped before return so the
// rotation phase starts from a clean baseline.
func soakSnapshot(rep *soakReport, eng *engine.Engine, shards int) error {
	f, err := os.CreateTemp("", "pombm-soak-*.snapshot")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	t0 := time.Now()
	n, err := epoch.WriteSnapshot(f, eng)
	if err != nil {
		return fmt.Errorf("snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		return err
	}
	rep.SnapshotWriteSeconds = time.Since(t0).Seconds()
	rep.SnapshotBytes = n
	if _, err := f.Seek(0, 0); err != nil {
		return err
	}
	t0 = time.Now()
	st, err := epoch.ReadState(f)
	if err != nil {
		return fmt.Errorf("snapshot read: %w", err)
	}
	restored, err := st.Engine(shards)
	if err != nil {
		return fmt.Errorf("snapshot restore: %w", err)
	}
	rep.SnapshotReadSeconds = time.Since(t0).Seconds()
	rep.SnapshotWorkers = restored.Len()
	if rep.SnapshotWorkers != eng.Len() {
		return fmt.Errorf("snapshot lost workers: restored %d, have %d", rep.SnapshotWorkers, eng.Len())
	}
	return nil
}

// sampleHeapPeak polls live heap roughly every millisecond until stop
// closes, then reports the maximum it saw (including one final read, so
// builds shorter than the poll interval still register).
func sampleHeapPeak(stop <-chan struct{}, peakCh chan<- uint64) {
	var peak uint64
	var ms runtime.MemStats
	for {
		select {
		case <-stop:
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
			peakCh <- peak
			return
		default:
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// readGCPauses snapshots the runtime's cumulative GC pause histogram,
// preferring the modern metric name with the pre-1.22 one as fallback.
// Counts are copied: metrics.Read may reuse histogram storage.
func readGCPauses() *metrics.Float64Histogram {
	for _, name := range []string{"/sched/pauses/total/gc:seconds", "/gc/pauses:seconds"} {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindFloat64Histogram {
			h := s[0].Value.Float64Histogram()
			cp := &metrics.Float64Histogram{
				Counts:  append([]uint64(nil), h.Counts...),
				Buckets: append([]float64(nil), h.Buckets...),
			}
			return cp
		}
	}
	return nil
}

// gcPauseDelta summarises the pauses that happened between two cumulative
// histogram snapshots. Quantiles report the matching bucket's upper bound
// (its lower bound for the +Inf tail bucket).
func gcPauseDelta(before, after *metrics.Float64Histogram) gcPauseStats {
	var st gcPauseStats
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return st
	}
	counts := make([]uint64, len(after.Counts))
	for i := range counts {
		counts[i] = after.Counts[i] - before.Counts[i]
		st.Count += counts[i]
	}
	if st.Count == 0 {
		return st
	}
	upper := func(i int) float64 {
		// Bucket i spans Buckets[i]..Buckets[i+1].
		hi := after.Buckets[i+1]
		if hi > after.Buckets[len(after.Buckets)-2] { // +Inf tail
			return after.Buckets[i]
		}
		return hi
	}
	quantile := func(q float64) float64 {
		target := uint64(q * float64(st.Count))
		if target == 0 {
			target = 1
		}
		var cum uint64
		for i, c := range counts {
			cum += c
			if cum >= target {
				return upper(i)
			}
		}
		return upper(len(counts) - 1)
	}
	st.P50 = quantile(0.50)
	st.P90 = quantile(0.90)
	st.P99 = quantile(0.99)
	for i := len(counts) - 1; i >= 0; i-- {
		if counts[i] > 0 {
			st.Max = upper(i)
			break
		}
	}
	return st
}

// readVmStatus reports VmRSS and VmHWM from /proc/self/status in bytes,
// zeros where the platform doesn't provide them.
func readVmStatus() (rss, hwm int64) {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		var dst *int64
		switch {
		case strings.HasPrefix(line, "VmRSS:"):
			dst = &rss
		case strings.HasPrefix(line, "VmHWM:"):
			dst = &hwm
		default:
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			var kb int64
			fmt.Sscanf(fields[1], "%d", &kb)
			*dst = kb << 10
		}
	}
	return rss, hwm
}

func mb(b int64) string {
	return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
}

func secs(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
