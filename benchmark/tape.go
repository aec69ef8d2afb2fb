package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// Frozen infrastructure: the paper's synthetic region on a 64×64 grid at
// the default privacy budget, published by a server started with a fixed
// seed. The server seed picks the HST (and every rotation's HST); it is
// deployment configuration like the grid, not workload input, so -seed
// varies the tape and the agents' obfuscation draws and leaves the
// published trees alone.
const (
	gridSide   = 64
	epsilon    = workload.DefaultEpsilon
	serverSeed = 7
)

var region = workload.SyntheticRegion

// Task mix: half the tasks are uniform, half come from one off-centre
// hotspot, so shards, nodes and tree levels are loaded unevenly and the
// hotspot's top branches drain while the rest of the map stays stocked.
// Frozen once so that cluster.root_tier_share sits in 0.05–0.15.
const (
	hotspotWeight = 0.5
	hotspotMu     = 60.0
	hotspotSigma  = 12.0
)

// Per-repetition constants shared by every workload.
const (
	warmupCycles = 2000 // untimed cycles at the head of every repetition
	burstCycles  = 256  // verified submits after the rotations
	rotations    = 3    // full-population rotations after the timed region
	precheckOps  = 1024 // operations replayed against the brute-force mirror
)

// spec freezes one workload: what it drives, how large, and why it exists.
type spec struct {
	name string
	why  string
	// tape names the tape family: serve-lifecycle and cluster-lifecycle
	// share one, so their rows subtract to the price of the coordinator.
	tape string
	// workers is the population loaded before the first timed call and
	// capacity the units each worker carries.
	workers, capacity int
	// cyclesPerSecond sizes the tape: a repetition times
	// cyclesPerSecond × seconds ÷ reps cycles, whatever the machine then
	// makes of them. It is the reference box's rate rounded down, so the
	// timed regions of one run add up to about -seconds there; the length
	// never depends on elapsed time, so both sides of a comparison do
	// identical work. The two lifecycle workloads share one value (the
	// cluster's rate) because they share one tape.
	cyclesPerSecond int
	// churnEvery: one cycle in this many also relocates (engine-churn) or
	// withdraws and replaces (lifecycle) an idle worker; 0 = never.
	churnEvery int
	// quickWorkers is the population under -quick.
	quickWorkers int
	// spansPerCycle sizes a traced repetition's span arena: the deepest
	// stack (client, coordinator handler, node requests and node handlers
	// for a submit, a release and a share of the churn) stays under 16 spans
	// a cycle, a batch task under 4 (its release and the engine calls below
	// it), and engine-churn records only its sampled cycles.
	spansPerCycle int
	// segmentCycles is the length of one timed segment (segments.go):
	// about 25 ms of cycles on the reference box.
	segmentCycles int
}

var specs = []spec{
	{
		name: "engine-churn", tape: "engine",
		why:     "engine.Engine called directly: hst and engine do all the work, so an index or shard change shows at full size and a wire or cluster change must show nothing",
		workers: 262144, capacity: 1, cyclesPerSecond: 400000, churnEvery: 16, quickWorkers: 32768, spansPerCycle: 1, segmentCycles: 10000,
	},
	{
		name: "serve-lifecycle", tape: "lifecycle",
		why:     "one platform.Server over loopback HTTP with submit, release, withdraw and register: platform, wire and net/http do over 95 % of the work",
		workers: 16384, capacity: 1, cyclesPerSecond: 6000, churnEvery: 8, quickWorkers: 4096, spansPerCycle: 16, segmentCycles: 400,
	},
	{
		name: "cluster-lifecycle", tape: "lifecycle",
		why:     "the serve-lifecycle tape through a coordinator over three HTTP nodes: routing, the coalescer, node round trips and root-tier polls dominate",
		workers: 16384, capacity: 1, cyclesPerSecond: 6000, churnEvery: 8, quickWorkers: 4096, spansPerCycle: 16, segmentCycles: 128,
	},
	{
		name: "batch-window", tape: "batch",
		why:     "in-process server under batch-optimal(8), capacity-4 workers, 56 batches of 64 and one of 512 per 4,096 tasks: mining, padding and flow.Bipartite do about 90 % of the work",
		workers: 65536, capacity: 4, cyclesPerSecond: 140000, churnEvery: 0, quickWorkers: 8192, spansPerCycle: 4, segmentCycles: batchPeriod,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Tape is the seed's fixed-length input: true points only. The agent role
// obfuscates it during set-up; the serving stacks never see it.
//
// Points is one array so that a worker's current whereabouts is a single
// index: [0, Workers) are the initial positions, then Cycles task points,
// Cycles return points (where the worker assigned at cycle i reappears:
// uniform, except on batch-window, where it is the task's own point),
// Churn points (where a relocated or newly registered worker appears), and
// the post-rotation burst's task and return points. Pick[k] selects the
// idle worker that churn event k relocates or withdraws.
type Tape struct {
	Workers, Cycles, Churn int
	Points                 []geo.Point
	Pick                   []uint32
	Digest                 string
}

func (t *Tape) taskRef(i int) int   { return t.Workers + i }
func (t *Tape) returnRef(i int) int { return t.Workers + t.Cycles + i }
func (t *Tape) churnRef(k int) int  { return t.Workers + 2*t.Cycles + k }
func (t *Tape) burstTaskRef(i int) int {
	return t.Workers + 2*t.Cycles + t.Churn + i
}
func (t *Tape) burstReturnRef(i int) int {
	return t.Workers + 2*t.Cycles + t.Churn + burstCycles + i
}

// batchPattern is batch-window's arrival shape: per 4,096 tasks, 56
// batches of 64 and one of 512, so the median task rode a single-window
// solve and the p99 task the pipelined (> 256) path.
func batchPattern() []int {
	sizes := make([]int, 0, 57)
	for i := 0; i < 56; i++ {
		sizes = append(sizes, 64)
	}
	return append(sizes, 512)
}

const batchPeriod = 56*64 + 512

// tapeCycles is the number of cycles one repetition plays: the warm-up
// plus the timed share of -seconds. batch-window rounds both parts to
// whole periods of its arrival pattern.
func tapeCycles(s spec, seconds, reps int) (warm, total int) {
	timed := s.cyclesPerSecond * seconds / reps
	warm = warmupCycles
	if s.tape == "batch" {
		warm = batchPeriod
		timed = max(timed/batchPeriod, 1) * batchPeriod
	}
	return warm, warm + timed
}

// GenerateTape turns (seed, tape family, sizes) into the tape. The same
// arguments always give byte-identical tapes.
func GenerateTape(seed uint64, family string, workers, cycles, churnEvery int) *Tape {
	t := &Tape{Workers: workers, Cycles: cycles}
	if churnEvery > 0 {
		t.Churn = cycles/churnEvery + maxClients
	}
	root := rng.New(seed).Derive("tape-" + family)
	uniform := workload.UniformSampler(region)
	hotspot := workload.NormalSampler(hotspotMu, hotspotSigma, region)
	task := func(src *rng.Source) geo.Point {
		if src.Float64() < hotspotWeight {
			return hotspot(src)
		}
		return uniform(src)
	}
	t.Points = make([]geo.Point, 0, workers+2*cycles+t.Churn+2*burstCycles)
	fill := func(label string, n int, sample workload.PointSampler) {
		src := root.Derive(label)
		for i := 0; i < n; i++ {
			t.Points = append(t.Points, sample(src))
		}
	}
	fill("workers", workers, uniform)
	fill("tasks", cycles, task)
	if family == "batch" {
		// Under batch-optimal a task whose k candidates are all taken by its
		// window is refused even on a stocked pool, and uniform returns would
		// drain the hotspot until its tasks share a handful of boundary
		// candidates. A finished worker reappears where its task was instead,
		// so supply follows demand and no task of the tape is refused.
		t.Points = append(t.Points, t.Points[workers:workers+cycles]...)
	} else {
		fill("returns", cycles, uniform)
	}
	fill("churn", t.Churn, uniform)
	fill("burst-tasks", burstCycles, task)
	fill("burst-returns", burstCycles, uniform)
	pick := root.Derive("pick")
	t.Pick = make([]uint32, t.Churn)
	for i := range t.Pick {
		t.Pick[i] = pick.Uint32()
	}

	h := sha256.New()
	var b [16]byte
	for _, n := range []int{t.Workers, t.Cycles, t.Churn} {
		binary.LittleEndian.PutUint64(b[:8], uint64(n))
		h.Write(b[:8])
	}
	for _, p := range t.Points {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(p.Y))
		h.Write(b[:])
	}
	for _, p := range t.Pick {
		binary.LittleEndian.PutUint32(b[:4], p)
		h.Write(b[:4])
	}
	t.Digest = hex.EncodeToString(h.Sum(nil))
	return t
}
