// The soak lane drives platform.Server at city scale and measures what the
// per-request benchmarks cannot: the index's and the registry's bytes per
// worker, GC pause behaviour under churn, and the peak extra memory a
// served rotation holds while the population is at its largest. It follows
// bent's split (golang/benchmarks) between the suite — what to run:
// population size and churn shape — and the config — how to run it: seed,
// tree geometry and the machine it ran on — so the same suite is comparable
// across machines and revisions.
//
// A suite loads a population, then runs many short epochs: assignments with
// fresh-code releases, departures, arrivals of returning and of never-seen
// ids, and a full rotation with every idle worker re-reporting while a
// handful stay busy across it. Churn runs on a virtual tick counter, not
// wall time: wall time only ever divides operation counts, so a loaded CI
// machine changes throughput numbers but never the workload. The registry —
// slot table, id index, lifetime-ε ledger — is what a long-lived server
// accumulates, and only the server's own operations (Register, Submit,
// Release, Withdraw, Rotate) exercise it. After every rotation the driver
// reads the registry's footprint off the server's own stats and fails if
// the slot table or its bytes exceed what live workers plus one epoch's
// churn account for — the bound that makes the slot space independent of
// how long the server has been up.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// soakSuite is the workload half of the suite/config split: how many
// workers, how much churn, how many rotations. Everything here is virtual —
// no field is a duration — so a suite means the same work everywhere. A
// suite runs Rotations epochs of Ticks each, and a move is a departure plus
// an arrival.
//
// The ceilings, where set, fail the suite past them. ArenaCeiling is the
// most index bytes per available worker any reading may show — after the
// load, after an epoch's churn, after a rotation's build — ~10 % above the
// largest reading on the default config (-grid 64, -seed 2020: 12.6 and
// 9.9 B; each rotated tree has its own degree, so the readings move by
// epoch). PeakCeiling is the most extra live heap a rotation may hold, as a
// multiple of the arenas and registry bytes it started from, ~10 % above
// the 1M suite's largest reading (2.97×): the old and the next slot table
// are both live until the flip, beside the next epoch's build.
type soakSuite struct {
	Name           string  `json:"name"`
	Workers        int     `json:"workers"`
	Ticks          int     `json:"ticks"`
	AssignsPerTick int     `json:"assigns_per_tick"`
	MovesPerTick   int     `json:"moves_per_tick"`
	Rotations      int     `json:"rotations"`
	ArenaCeiling   float64 `json:"arena_ceiling_bytes_per_worker,omitempty"`
	PeakCeiling    float64 `json:"rotate_peak_ceiling_ratio,omitempty"`
}

var soakSuites = []soakSuite{
	{Name: "platform-100k", Workers: 100_000, Ticks: 2, AssignsPerTick: 256, MovesPerTick: 64, Rotations: 50, ArenaCeiling: 13.9, PeakCeiling: 3.3},
	{Name: "platform-1m", Workers: 1_000_000, Ticks: 8, AssignsPerTick: 512, MovesPerTick: 4096, Rotations: 50, ArenaCeiling: 10.8, PeakCeiling: 3.3},
	{Name: "platform-10m", Workers: 10_000_000, Ticks: 8, AssignsPerTick: 512, MovesPerTick: 4096, Rotations: 3},
}

// soakConfig is the environment half: everything that can legitimately
// differ between two runs of the same suite.
type soakConfig struct {
	Seed       uint64 `json:"seed"`
	GridCols   int    `json:"grid_cols"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GitSHA     string `json:"git_sha"`
}

func newSoakConfig(seed uint64, gridCols int) soakConfig {
	return soakConfig{
		Seed:       seed,
		GridCols:   gridCols,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GitSHA:     gitSHA(),
	}
}

// gcPauseStats summarises the runtime's GC pause histogram over the whole
// run, from the load to the last rotation: the collection each rotation's
// swap forces and the one the driver forces before its heap base included.
// Quantiles are bucket upper bounds, so they round pessimistically.
type gcPauseStats struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P90   float64 `json:"p90_seconds"`
	P99   float64 `json:"p99_seconds"`
	Max   float64 `json:"max_seconds"`
}

// soakEpoch is one epoch's reading, taken around its closing rotation.
type soakEpoch struct {
	Epoch int64 `json:"epoch"`
	// LiveWorkers is the online population (idle + busy) at the rotation;
	// ChurnRegistrations the registrations the epoch saw, each of which
	// opened a slot.
	LiveWorkers        int `json:"live_workers"`
	ChurnRegistrations int `json:"churn_registrations"`
	// SlotTableLenBefore is read just before the commit (live + the epoch's
	// closed stints), SlotTableLen and the rest just after.
	SlotTableLenBefore     int     `json:"slot_table_len_before"`
	SlotTableLen           int     `json:"slot_table_len"`
	RegistryBytes          int     `json:"registry_bytes"`
	RegistryBytesPerWorker float64 `json:"registry_bytes_per_worker"`
	DepartedLedgerIDs      int     `json:"departed_ledger_ids"`
	// ArenaBytes is the core's arenas after the epoch's churn,
	// RotatedArenaBytes the rotation's build: the next epoch's start.
	ArenaBytes        int64   `json:"arena_bytes"`
	RotatedArenaBytes int64   `json:"rotated_arena_bytes"`
	RotateSeconds     float64 `json:"rotate_seconds"`
	// Rotation peak memory: the most live heap the commit held beyond its
	// base, read after a forced GC once the reports were built, and that
	// extra over ArenaBytes + the registry bytes read before the commit.
	RotatePeakExtraBytes int64   `json:"rotate_peak_extra_bytes"`
	RotatePeakExtraRatio float64 `json:"rotate_peak_extra_ratio"`
}

// soakReport is the machine-readable soak result. Byte sizes are exact;
// heap numbers are ReadMemStats.HeapAlloc after a forced GC, so they count
// live bytes, not allocator slack.
type soakReport struct {
	Suite  soakSuite  `json:"suite"`
	Config soakConfig `json:"config"`

	LoadSeconds       float64 `json:"load_seconds"`
	LoadWorkersPerSec float64 `json:"load_workers_per_sec"`
	LoadArenaBytes    int64   `json:"load_arena_bytes"`

	ChurnSeconds float64      `json:"churn_seconds"`
	AssignOps    int64        `json:"assign_ops"`
	WithdrawOps  int64        `json:"withdraw_ops"`
	ReturningOps int64        `json:"register_returning_ops"`
	FreshOps     int64        `json:"register_fresh_ops"`
	GCPauses     gcPauseStats `json:"gc_pauses"`

	Epochs []soakEpoch `json:"epochs"`

	// Steady state after the last rotation, with the held workers back:
	// steady_heap_bytes is the whole process's live heap, driver tables
	// (worker names, generations) included, and arena_bytes the core's
	// structural cost (its index's trie slabs).
	// max_arena_bytes_per_worker is the largest reading of the run, the one
	// the suite's ceiling gates.
	SteadyHeapBytes        int64   `json:"steady_heap_bytes"`
	HeapBytesPerWorker     float64 `json:"heap_bytes_per_worker"`
	ArenaBytes             int64   `json:"arena_bytes"`
	ArenaBytesPerWorker    float64 `json:"arena_bytes_per_worker"`
	MaxArenaBytesPerWorker float64 `json:"max_arena_bytes_per_worker"`
	VmRSSBytes             int64   `json:"vm_rss_bytes,omitempty"`
	VmHWMBytes             int64   `json:"vm_hwm_bytes,omitempty"`

	// The worst rotation's peak extra bytes and ratio, over all epochs.
	RotatePeakExtraBytes int64   `json:"rotate_peak_extra_bytes"`
	RotatePeakExtraRatio float64 `json:"rotate_peak_extra_ratio"`
}

// codeGen deterministically derives worker id × generation → leaf code, so
// the driver never stores the population's codes: the server's registry
// and the core's arenas hold the only copies. Codes are real leaves of the
// published tree — exactly what obfuscation emits — picked by a splitmix64
// scramble that is independent of the churn rng, so assignment traffic
// never perturbs placement.
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

// registryBytesBound is the most a table of n slots may allocate here: 32 B
// a slot — the 8 B record, the packed code (the lane's rotated trees all
// have depth 10 and degree 14–29, so 5, 6 or 7 B: a digit pair takes 8 bits
// up to degree 16, 9 up to 22, 10 up to 32), an id ("w" and at most seven
// digits) behind its length byte in the id slab, and the id index, whose
// 4 B entries cost 5–7.5 B (a rotation sizes it at 53–80 % load, and an
// epoch's churn is too small to double it) — plus one 1,024-slot page of
// records and 7 B codes, one 16 KiB id chunk of slack, the smallest index,
// a degree-32 pair table and the carried-lag slice: 8 B for each of the at
// most 8 stints the lane holds busy across a rotation.
func registryBytesBound(n int) int { return 32*n + 1024*(8+7) + 16<<10 + 4*24 + 2*32*32 + 8*8 }

// platformSoak is the driver's book of who is where.
type platformSoak struct {
	srv   *platform.Server
	codes *codeGen
	names []string // id → external worker id
	gens  []uint32 // id → code generation
	idle  []int    // online, unassigned ids
	at    []int    // id → position in idle, −1 when not idle
	away  []int    // offline ids, free to return
	busy  []int    // assigned and held across the next rotation
	epoch int64
}

func (p *platformSoak) freshCode(id int) []byte {
	p.gens[id]++
	return []byte(p.codes.code(id, p.gens[id]))
}

func (p *platformSoak) setIdle(id int) {
	p.at[id] = len(p.idle)
	p.idle = append(p.idle, id)
}

func (p *platformSoak) unsetIdle(id int) {
	i, last := p.at[id], p.idle[len(p.idle)-1]
	p.idle[i], p.at[last] = last, i
	p.idle = p.idle[:len(p.idle)-1]
	p.at[id] = -1
}

// register brings the id online; a never-seen id is named first.
func (p *platformSoak) register(id int) error {
	if id == len(p.names) {
		p.names = append(p.names, "w"+strconv.Itoa(id))
		p.gens = append(p.gens, 0)
		p.at = append(p.at, -1)
	}
	resp := p.srv.Register(platform.RegisterRequest{WorkerID: p.names[id], Code: p.freshCode(id), Epoch: p.epoch})
	if !resp.OK {
		return fmt.Errorf("register %s: %s", p.names[id], resp.Reason)
	}
	p.setIdle(id)
	return nil
}

// assign submits one task; the assigned worker either re-reports at once
// or, when hold is set, stays busy until after the next rotation.
func (p *platformSoak) assign(task hst.Code, hold bool) error {
	resp := p.srv.Submit(platform.TaskRequest{Code: []byte(task), Epoch: p.epoch})
	if !resp.Assigned {
		return fmt.Errorf("submit with %d idle workers: %s", len(p.idle), resp.Reason)
	}
	id, err := strconv.Atoi(resp.WorkerID[1:])
	if err != nil || id >= len(p.names) || p.at[id] < 0 {
		return fmt.Errorf("submit answered %q, not an idle worker", resp.WorkerID)
	}
	if hold {
		p.unsetIdle(id)
		p.busy = append(p.busy, id)
		return nil
	}
	return p.release(id)
}

func (p *platformSoak) release(id int) error {
	resp := p.srv.Release(platform.ReleaseRequest{WorkerID: p.names[id], Code: p.freshCode(id), Epoch: p.epoch})
	if !resp.OK {
		return fmt.Errorf("release %s: %s", p.names[id], resp.Reason)
	}
	return nil
}

// rotate re-reports every idle worker under the next tree and commits under
// a concurrent heap sampler, recording the commit's time and peak in e. The
// base is read once the reports are built, so the peak is the commit's own.
func (p *platformSoak) rotate(e *soakEpoch) error {
	prep := p.srv.PrepareRotate(platform.PrepareRotateRequest{})
	if !prep.OK {
		return fmt.Errorf("prepare rotation: %s", prep.Reason)
	}
	p.codes.tree = prep.Tree
	reports := make([]platform.WorkerReport, len(p.idle))
	for i, id := range p.idle {
		reports[i] = platform.WorkerReport{WorkerID: p.names[id], Code: p.freshCode(id)}
	}
	runtime.GC()
	var base, end runtime.MemStats
	runtime.ReadMemStats(&base)
	stop, peakCh := make(chan struct{}), make(chan uint64, 1)
	go sampleHeapPeak(stop, peakCh)
	t0 := time.Now()
	resp := p.srv.Rotate(platform.RotateRequest{Epoch: prep.Epoch, Reports: reports})
	e.RotateSeconds = time.Since(t0).Seconds()
	close(stop)
	peak := <-peakCh
	runtime.ReadMemStats(&end)
	if live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}; end.NumGC == base.NumGC+1 {
		// One collection ran inside the commit (the swap's own) and nothing is
		// freed between two, so the heap it began on was base plus all the
		// commit allocated less what the heap gained since, however short.
		metrics.Read(live)
		peak = max(peak, base.HeapAlloc+end.TotalAlloc-base.TotalAlloc-end.HeapAlloc+live[0].Value.Uint64())
	}
	e.RotatePeakExtraBytes = max(int64(max(peak, end.HeapAlloc))-int64(base.HeapAlloc), 0)
	if !resp.OK || resp.Rotated != len(p.idle) || len(resp.Dropped) != 0 || len(resp.Parked) != 0 || resp.Skipped != 0 {
		return fmt.Errorf("rotation to epoch %d: ok=%v rotated=%d of %d dropped=%d parked=%d skipped=%d %s",
			prep.Epoch, resp.OK, resp.Rotated, len(p.idle), len(resp.Dropped), len(resp.Parked), resp.Skipped, resp.Reason)
	}
	p.epoch = prep.Epoch
	return nil
}

// runPlatformSoak executes one suite end to end. The report goes to jsonPath
// ("" = SOAK_<suite>.json) and a human summary to stdout.
func runPlatformSoak(suite soakSuite, gridCols int, seed uint64, jsonPath string) error {
	// A lifetime budget nobody exhausts: the ledger and its departed side
	// are on the path, parking is not.
	srv, err := platform.NewServer(workload.SyntheticRegion, gridCols, gridCols, 0.6, seed,
		platform.WithLifetimeBudget(1e12))
	if err != nil {
		return err
	}
	arenas, ok := srv.Core().(interface{ ArenaBytes() int64 })
	if !ok {
		return fmt.Errorf("core %T does not report its arena bytes", srv.Core())
	}
	pub := srv.Publication()
	rep := soakReport{Suite: suite, Config: newSoakConfig(seed, gridCols)}
	fmt.Printf("soak %s: %d workers through platform.Server over N=%d D=%d c=%d, %d rotations, GOMAXPROCS=%d\n",
		suite.Name, suite.Workers, pub.Tree.NumPoints(), pub.Tree.Depth(), pub.Tree.Degree(), suite.Rotations, rep.Config.GOMAXPROCS)

	p := &platformSoak{srv: srv, codes: &codeGen{tree: pub.Tree, seed: seed}, epoch: pub.Epoch}
	// readArenas is one reading of the core's arenas. The core must hold
	// exactly the driver's idle workers, and a worker must cost no more
	// index bytes than the suite's ceiling: a representation that got
	// fatter shows here.
	readArenas := func(what string) (int64, error) {
		b, n := arenas.ArenaBytes(), srv.Core().Len()
		if n != len(p.idle) {
			return b, fmt.Errorf("%s: the core holds %d workers, the driver has %d idle", what, n, len(p.idle))
		}
		perWorker := float64(b) / float64(n)
		rep.MaxArenaBytesPerWorker = max(rep.MaxArenaBytesPerWorker, perWorker)
		if suite.ArenaCeiling > 0 && perWorker > suite.ArenaCeiling {
			return b, fmt.Errorf("%s: arenas hold %.2f B/worker, the suite's ceiling is %.1f", what, perWorker, suite.ArenaCeiling)
		}
		return b, nil
	}
	pausesBefore := readGCPauses()
	t0 := time.Now()
	for id := 0; id < suite.Workers; id++ {
		if err := p.register(id); err != nil {
			return err
		}
	}
	rep.LoadSeconds = time.Since(t0).Seconds()
	rep.LoadWorkersPerSec = float64(suite.Workers) / rep.LoadSeconds
	if rep.LoadArenaBytes, err = readArenas("load"); err != nil {
		return err
	}
	fmt.Printf("  load: %d workers in %.2fs (%.0f workers/sec), arenas %s\n",
		suite.Workers, rep.LoadSeconds, rep.LoadWorkersPerSec, mb(rep.LoadArenaBytes))

	src := rng.New(seed).Derive("soak-platform")
	taskSrc, churnSrc := src.Derive("tasks"), src.Derive("churn")
	start := rep.LoadArenaBytes
	t0 = time.Now()
	for r := 0; r < suite.Rotations; r++ {
		liveStart := len(p.idle) + len(p.busy)
		registers := 0
		for tick := 0; tick < suite.Ticks; tick++ {
			// The epoch's last few assignments stay busy across the rotation,
			// so every rotation carries stints as well as renumbering them.
			holdFrom := suite.AssignsPerTick
			if tick == suite.Ticks-1 {
				holdFrom -= min(8, suite.AssignsPerTick)
			}
			for a := 0; a < suite.AssignsPerTick; a++ {
				task := p.codes.tree.CodeOf(taskSrc.Intn(p.codes.tree.NumPoints()))
				if err := p.assign(task, a >= holdFrom); err != nil {
					return fmt.Errorf("epoch %d tick %d: %w", p.epoch, tick, err)
				}
				rep.AssignOps++
			}
			for m := 0; m < suite.MovesPerTick; m++ {
				id := p.idle[churnSrc.Intn(len(p.idle))]
				if resp := srv.Withdraw(platform.WithdrawRequest{WorkerID: p.names[id]}); !resp.OK {
					return fmt.Errorf("epoch %d tick %d: withdraw %s: %s", p.epoch, tick, p.names[id], resp.Reason)
				}
				p.unsetIdle(id)
				p.away = append(p.away, id)
				rep.WithdrawOps++
			}
			for m := 0; m < suite.MovesPerTick; m++ {
				// Arrivals alternate between a returning id and a new one.
				id := len(p.names)
				if m%2 == 0 {
					i := churnSrc.Intn(len(p.away))
					id = p.away[i]
					p.away[i] = p.away[len(p.away)-1]
					p.away = p.away[:len(p.away)-1]
					rep.ReturningOps++
				} else {
					rep.FreshOps++
				}
				if err := p.register(id); err != nil {
					return fmt.Errorf("epoch %d tick %d: %w", p.epoch, tick, err)
				}
				registers++
			}
		}

		// The footprint gate. Churn that only ever promotes nodes to wider
		// child forms (or leaks freed slots) shows as arenas growing under a
		// population that did not.
		e := soakEpoch{ChurnRegistrations: registers}
		if e.ArenaBytes, err = readArenas(fmt.Sprintf("epoch %d churn", p.epoch)); err != nil {
			return err
		}
		if limit := start + start/10; e.ArenaBytes > limit {
			return fmt.Errorf("epoch %d: arenas grew from %d B to %d B under churn at a constant population; 10%% allows %d",
				p.epoch, start, e.ArenaBytes, limit)
		}
		before := srv.Stats()
		if err := p.rotate(&e); err != nil {
			return err
		}
		st := srv.Stats()
		live := len(p.idle) + len(p.busy)
		if e.RotatedArenaBytes, err = readArenas(fmt.Sprintf("epoch %d build", st.Epoch)); err != nil {
			return err
		}
		start = e.RotatedArenaBytes
		e.Epoch, e.LiveWorkers = st.Epoch, live
		e.SlotTableLenBefore, e.SlotTableLen = before.SlotTableLen, st.SlotTableLen
		e.RegistryBytes, e.RegistryBytesPerWorker = st.RegistryBytes, float64(st.RegistryBytes)/float64(live)
		e.DepartedLedgerIDs = st.DepartedLedgerIDs
		e.RotatePeakExtraRatio = float64(e.RotatePeakExtraBytes) / float64(e.ArenaBytes+int64(before.RegistryBytes))
		rep.Epochs = append(rep.Epochs, e)
		rep.RotatePeakExtraBytes = max(rep.RotatePeakExtraBytes, e.RotatePeakExtraBytes)
		rep.RotatePeakExtraRatio = max(rep.RotatePeakExtraRatio, e.RotatePeakExtraRatio)
		// The bound: a slot per live worker plus one per registration the
		// epoch saw, before the rotation; a slot per live worker after it.
		switch {
		case before.SlotTableLen > liveStart+registers:
			return fmt.Errorf("epoch %d: slot table grew to %d before its rotation; %d live + %d registrations allow %d",
				st.Epoch-1, before.SlotTableLen, liveStart, registers, liveStart+registers)
		case before.RegistryBytes > registryBytesBound(liveStart+registers):
			return fmt.Errorf("epoch %d: registry grew to %d B before its rotation; %d slots allow %d",
				st.Epoch-1, before.RegistryBytes, liveStart+registers, registryBytesBound(liveStart+registers))
		case st.SlotTableLen != live:
			return fmt.Errorf("epoch %d: slot table holds %d slots after the rotation, %d workers are live", st.Epoch, st.SlotTableLen, live)
		case st.RegistryBytes > registryBytesBound(live):
			return fmt.Errorf("epoch %d: registry is %d B after the rotation; %d slots allow %d",
				st.Epoch, st.RegistryBytes, live, registryBytesBound(live))
		case st.AvailableWorkers != len(p.idle):
			return fmt.Errorf("epoch %d: %d workers available, the driver has %d idle", st.Epoch, st.AvailableWorkers, len(p.idle))
		case suite.PeakCeiling > 0 && e.RotatePeakExtraRatio > suite.PeakCeiling:
			return fmt.Errorf("epoch %d: the rotation held %s extra = %.2fx its arenas and registry, the suite's ceiling is %.1fx",
				st.Epoch, mb(e.RotatePeakExtraBytes), e.RotatePeakExtraRatio, suite.PeakCeiling)
		}
		if r%10 == 9 || r == suite.Rotations-1 {
			fmt.Printf("  epoch %d: %d live, slot table %d → %d, registry %.1f B/worker, arenas %s → %s, %d departed ids, rotate %.2fs, peak extra %s = %.2fx\n",
				e.Epoch, live, e.SlotTableLenBefore, e.SlotTableLen, e.RegistryBytesPerWorker, mb(e.ArenaBytes), mb(e.RotatedArenaBytes),
				e.DepartedLedgerIDs, e.RotateSeconds, mb(e.RotatePeakExtraBytes), e.RotatePeakExtraRatio)
		}
		// The held workers finish under the new epoch.
		for _, id := range p.busy {
			if err := p.release(id); err != nil {
				return err
			}
			p.setIdle(id)
		}
		p.busy = p.busy[:0]
	}
	rep.ChurnSeconds = time.Since(t0).Seconds()
	rep.GCPauses = gcPauseDelta(pausesBefore, readGCPauses())

	st := srv.Stats()
	if want := int(rep.FreshOps) + suite.Workers; st.RegisteredWorkers != want {
		return fmt.Errorf("registered_workers is %d, the driver named %d ids", st.RegisteredWorkers, want)
	}
	if rep.ArenaBytes, err = readArenas("steady"); err != nil {
		return err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.SteadyHeapBytes = int64(ms.HeapAlloc)
	rep.HeapBytesPerWorker = float64(ms.HeapAlloc) / float64(len(p.idle))
	rep.ArenaBytesPerWorker = float64(rep.ArenaBytes) / float64(len(p.idle))
	rep.VmRSSBytes, rep.VmHWMBytes = readVmStatus()
	fmt.Printf("  %d rotations, %d assigns, %d withdrawals, %d returning + %d fresh registrations in %.2fs\n",
		suite.Rotations, rep.AssignOps, rep.WithdrawOps, rep.ReturningOps, rep.FreshOps, rep.ChurnSeconds)
	fmt.Printf("  gc: %d pauses, p50 %s p90 %s p99 %s max %s\n",
		rep.GCPauses.Count, secs(rep.GCPauses.P50), secs(rep.GCPauses.P90), secs(rep.GCPauses.P99), secs(rep.GCPauses.Max))
	fmt.Printf("  steady: heap %s (%.1f B/worker, driver tables included), arenas %s (%.2f B/worker, at most %.2f), RSS %s, peak RSS %s\n",
		mb(rep.SteadyHeapBytes), rep.HeapBytesPerWorker, mb(rep.ArenaBytes), rep.ArenaBytesPerWorker, rep.MaxArenaBytesPerWorker,
		mb(rep.VmRSSBytes), mb(rep.VmHWMBytes))
	fmt.Printf("  rotation peak extra: at most %s, at most %.2fx the arenas and registry it started from\n",
		mb(rep.RotatePeakExtraBytes), rep.RotatePeakExtraRatio)

	return writeSoakReport(jsonPath, suite.Name, &rep)
}

// writeSoakReport writes a suite's machine-readable report to jsonPath
// ("" = SOAK_<suite>.json).
func writeSoakReport(jsonPath, suite string, rep *soakReport) error {
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

// sampleHeapPeak polls live heap roughly every millisecond until stop
// closes, then reports the maximum it saw (including one final read, so
// builds shorter than the poll interval still register).
func sampleHeapPeak(stop <-chan struct{}, peakCh chan<- uint64) {
	peak := heapObjectBytes()
	for {
		select {
		case <-stop:
			peakCh <- max(peak, heapObjectBytes())
			return
		default:
			peak = max(peak, heapObjectBytes())
			time.Sleep(time.Millisecond)
		}
	}
}

// heapObjectBytes is ReadMemStats' HeapAlloc read off runtime/metrics,
// which does not stop the world: a sampler that did would preempt the
// rotation it measures a thousand times a second.
func heapObjectBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// readGCPauses snapshots the runtime's cumulative GC pause histogram.
// Counts are copied: metrics.Read may reuse histogram storage.
func readGCPauses() *metrics.Float64Histogram {
	s := []metrics.Sample{{Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	h := s[0].Value.Float64Histogram()
	return &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: append([]float64(nil), h.Buckets...)}
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
