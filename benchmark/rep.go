package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"

	"github.com/pombm/pombm/internal/stats"
)

// repOpts are the knobs of one repetition.
type repOpts struct {
	seed      uint64
	clients   int
	traced    bool
	rotations int
	// warm and total delimit the tape: cycles [0, warm) are the untimed
	// warm-up, [warm, total) the timed region.
	warm, total int
	// yard reads the host's speed between the timed segments.
	yard *yardstick
}

// repResult is everything one repetition measured.
type repResult struct {
	e2e   map[string]float64 // end-to-end metrics, by name
	layer map[string]float64 // per-layer metrics this repetition can see from outside
	// attempted and failed count operations; failure is the first failed
	// check's message.
	attempted, failed int64
	failure           string
	// Traced repetitions only.
	spans            []Span
	dropped          int
	timedLo, timedHi int64
	timedNs          int64 // the segments' wall time, without the yardstick's chunks between them
	tasks            int
}

// procSnap is the process-wide state read on both sides of a timed region.
type procSnap struct {
	mallocs, bytes  uint64
	cpuNs           int64
	gcCPU, totalCPU float64
	pauses          *metrics.Float64Histogram
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpuNs = ru.Utime.Nano() + ru.Stime.Nano()
	}
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := samples[2].Value.Float64Histogram()
		// Copied: metrics.Read may reuse the histogram's storage.
		s.pauses = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return s
}

// procUse is what the process spent between pairs of snapshots. The
// timed region is a sum of such stretches: the yardstick's chunks between
// them allocate and compute too, and are left out.
type procUse struct {
	mallocs, bytes  uint64
	cpuNs           int64
	gcCPU, totalCPU float64
	pauses          []uint64  // GC pauses per bucket
	buckets         []float64 // the buckets' edges, len(pauses)+1
}

func (u *procUse) add(a, b procSnap) {
	u.mallocs += b.mallocs - a.mallocs
	u.bytes += b.bytes - a.bytes
	u.cpuNs += b.cpuNs - a.cpuNs
	u.gcCPU += b.gcCPU - a.gcCPU
	u.totalCPU += b.totalCPU - a.totalCPU
	if a.pauses == nil || b.pauses == nil || len(a.pauses.Counts) != len(b.pauses.Counts) {
		return
	}
	if u.pauses == nil {
		u.pauses, u.buckets = make([]uint64, len(b.pauses.Counts)), b.pauses.Buckets
	}
	for i := range u.pauses {
		u.pauses[i] += b.pauses.Counts[i] - a.pauses.Counts[i]
	}
}

// gcPauseP99 returns the 99th-percentile GC pause in microseconds (the
// bucket's upper edge; 0 when no GC ran).
func (u *procUse) gcPauseP99() float64 {
	var total uint64
	for _, c := range u.pauses {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := (total*99 + 99) / 100
	var cum uint64
	for i, c := range u.pauses {
		if cum += c; cum >= rank {
			hi := u.buckets[i+1]
			if hi > 1e6 { // the +Inf tail bucket
				hi = u.buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// heapAfterGC is the live heap once forced collections have finished; the
// second one frees what the first one's finalizers and emptied sync.Pools
// released.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// median of an unsorted sample; 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Percentile(s, 0.5)
}

// runRep plays one repetition of a workload on a fresh stack: set-up,
// warm-up, the timed region, the rotations with their verified burst, and
// the conservation audit.
func runRep(sp spec, tape *Tape, names []string, o repOpts) (*repResult, error) {
	res := &repResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	var rec *Recorder
	if o.traced {
		rec = NewRecorder(sp.spansPerCycle*(o.total+burstCycles) + 4096)
	}

	// ---- set-up: tree build, tape obfuscation, stack start, population
	// load. The forced collections — one before, so that set-up does not pay
	// for the previous repetition's garbage, two that bracket the load — are
	// the harness's and are kept off the clock.
	runtime.GC()
	t0 := now()
	st, err := buildStack(sp, rec)
	if err != nil {
		return nil, err
	}
	defer st.close()
	pub, err := st.publication()
	if err != nil {
		return nil, err
	}
	codes, err := obfuscate(pub, o.seed, "tape", tape.Points)
	if err != nil {
		return nil, err
	}
	r := &run{sp: sp, tape: tape, st: st, codes: codes, names: names, epoch: pub.Epoch,
		pool: newPool(tape.Workers, tape.Churn, sp.capacity)}
	t1 := now()
	heap0 := heapAfterGC()
	t2 := now()
	if err := r.load(); err != nil {
		return nil, err
	}
	clients := make([]*client, o.clients)
	for i := range clients {
		clients[i] = st.newClient(i)
	}
	t3 := now()
	heap1 := heapAfterGC()
	setup := float64((t1-t0)+(t3-t2)) / 1e9
	res.e2e["heap_bytes_per_worker"] = (float64(heap1) - float64(heap0)) / float64(tape.Workers)
	if st.eng != nil {
		res.layer["hst.arena_bytes_per_worker"] = float64(st.eng.ArenaBytes()) / float64(st.eng.Len())
	}

	// ---- warm-up, then the timed region.
	r.phase(clients, 0, o.warm)
	var tasks0 int
	for _, c := range clients {
		tasks0 += c.tasks
		c.task, c.worker = Histogram{}, Histogram{}
		c.dist, c.callNs, c.cycleNs, c.timedCycles = 0, 0, 0, 0
	}
	before := st.counters()
	tr, err := r.timedRegion(clients, o)
	if err != nil {
		return nil, err
	}
	after := st.counters()
	res.timedLo, res.timedHi = tr.lo, tr.hi

	var dist float64
	var callNs, cycleNs, timedCycles int64
	for _, c := range clients {
		res.tasks += c.tasks
		dist += c.dist
		callNs += c.callNs
		cycleNs += c.cycleNs
		timedCycles += c.timedCycles
	}
	res.tasks -= tasks0
	if res.tasks == 0 || timedCycles == 0 {
		return nil, fmt.Errorf("%s: no task was answered in the timed region: %s", sp.name, r.firstFailure())
	}
	n := float64(res.tasks)

	// The end-to-end timings: read off the quieter half of the segments, at
	// the host speed the yardstick read beside them. Set-up ran a moment
	// before on the same host.
	index := o.yard.index(tr.chunks)
	quiet := tr.pooled(quieterHalf(tr.segs))
	res.e2e["setup_s"] = setup / index
	res.e2e["task_tput_per_s"] = quiet.tput() * index
	res.e2e["task_p50_us"] = quiet.task.Quantile(0.50) / 1e3 / index
	res.e2e["worker_op_p50_us"] = quiet.worker.Quantile(0.50) / 1e3 / index
	res.e2e["travel_dist_mean"] = dist / n

	// The same figures as the clock gave them, over every segment, and the
	// tails, which belong to the whole run.
	whole := tr.pooled(nil)
	res.timedNs = whole.wall
	res.layer["bench.host_speed_index"] = index
	res.layer["client.setup_raw_s"] = setup
	res.layer["client.task_tput_raw_per_s"] = whole.tput()
	res.layer["client.task_p50_raw_us"] = whole.task.Quantile(0.50) / 1e3
	res.layer["client.worker_op_p50_raw_us"] = whole.worker.Quantile(0.50) / 1e3
	res.layer["client.task_p90_us"] = whole.task.Quantile(0.90) / 1e3
	res.layer["client.task_p99_us"] = whole.task.Quantile(0.99) / 1e3
	res.layer["client.task_p999_us"] = whole.task.Quantile(0.999) / 1e3
	res.layer["bench.harness_ns_per_cycle"] = float64(cycleNs-callNs) / float64(timedCycles)
	res.layer["proc.allocs_per_task"] = float64(tr.use.mallocs) / n
	res.layer["proc.bytes_per_task"] = float64(tr.use.bytes) / n
	res.layer["proc.cpu_us_per_task"] = float64(tr.use.cpuNs) / 1e3 / n
	res.layer["proc.gc_pause_p99_us"] = tr.use.gcPauseP99()
	if tr.use.totalCPU > 0 {
		res.layer["proc.gc_cpu_share"] = tr.use.gcCPU / tr.use.totalCPU
	}
	after.sub(before).report(res.layer, sp, n)
	if len(clients) > 0 && clients[0].rt != nil {
		conns, reused := 0, 0
		for _, c := range clients {
			conns += c.rt.conns
			reused += c.rt.reused
		}
		res.layer["platform.conn_reuse_share"] = float64(reused) / float64(max(conns, 1))
	}

	// ---- rotations, each with every live worker re-reporting, then a
	// verified burst under the last epoch.
	var rotMs []float64
	for i := 0; i < o.rotations; i++ {
		total, err := r.rotate(o.seed)
		if err != nil {
			return nil, fmt.Errorf("%s: rotation %d: %w", sp.name, i+1, err)
		}
		rotMs = append(rotMs, float64(total)/1e6)
	}
	res.layer["client.rotate_ms"] = median(rotMs)
	if o.rotations > 0 {
		r.burst(clients[0])
	}
	r.conserve(clients)

	res.attempted, res.failed = r.pool.attempted.Load(), r.pool.failed.Load()
	res.failure = r.firstFailure()
	if rec != nil {
		res.spans, res.dropped = rec.Spans(), rec.Dropped()
	}
	return res, nil
}

func (r *run) firstFailure() string {
	if msg := r.pool.firstFailure.Load(); msg != nil {
		return *msg
	}
	return ""
}

// counters is the program's own monitoring surface read from outside: the
// server's match-level histogram and the engine's shard and window
// counters. They are lifetime counts, so a timed region is a difference.
type counters struct {
	assigned, rootTier int
	windows            int64
	shardAssigns       []int64
	fallbacks          int64
}

func (st *stack) counters() counters {
	var c counters
	if st.srv != nil {
		s := st.srv.Stats()
		c.assigned = s.AssignedTasks
		// A match at the tree's top level is a root-tier assignment: no
		// worker shared the task's top branch.
		if d := st.srv.Core().Tree().Depth(); d < len(s.MatchLevelCounts) {
			c.rootTier = s.MatchLevelCounts[d]
		}
	}
	if st.eng != nil {
		c.windows = st.eng.Windows()
		for _, sh := range st.eng.ShardStats() {
			c.shardAssigns = append(c.shardAssigns, sh.Assigns)
			c.fallbacks += sh.Fallbacks
		}
	}
	return c
}

func (c counters) sub(o counters) counters {
	c.assigned -= o.assigned
	c.rootTier -= o.rootTier
	c.windows -= o.windows
	c.fallbacks -= o.fallbacks
	c.shardAssigns = append([]int64(nil), c.shardAssigns...)
	for i := range c.shardAssigns {
		if i < len(o.shardAssigns) {
			c.shardAssigns[i] -= o.shardAssigns[i]
		}
	}
	return c
}

func (c counters) report(layer map[string]float64, sp spec, tasks float64) {
	if sp.name == "cluster-lifecycle" && c.assigned > 0 {
		layer["cluster.root_tier_share"] = float64(c.rootTier) / float64(c.assigned)
	}
	if len(c.shardAssigns) > 0 {
		var sum, top int64
		for _, a := range c.shardAssigns {
			sum += a
			top = max(top, a)
		}
		if sum > 0 {
			layer["engine.fallback_share"] = float64(c.fallbacks) / tasks
			layer["engine.shard_skew"] = float64(top) * float64(len(c.shardAssigns)) / float64(sum)
		}
	}
	if sp.name == "batch-window" {
		layer["engine.windows"] = float64(c.windows)
	}
}
