// Package sim is a deterministic, seed-driven event simulator for the
// online assignment stack. It drives a platform server (alone, or in front
// of a coordinator's in-process nodes) through temporal scenarios the static
// batch pipelines cannot express: Poisson and bursty task arrivals, worker
// churn (arrive, serve, go offline, come back with a freshly obfuscated
// code), task deadlines with expiry, and time-sliced batch assignment
// windows.
//
// The simulator owns a virtual clock and an event heap ordered by (time,
// insertion sequence); every stochastic choice is drawn from an rng.Source
// derived from the run seed, and the loop is single-threaded, so a run —
// including its metrics report — is a bit-for-bit pure function of
// (scenario, seed, driver). An optional cross-check mode holds every
// decision to one independent reference and counts divergences (zero
// expected): the sequential brute-force rule of Alg. 4, and under a
// window-solving policy a fresh min-cost matching per batch window.
//
// Each event handler calls the platform.Server under test directly. A
// worker's index is its only id: worker i registers, releases and
// withdraws as "w<i>" across all its online stints, so the server's
// withdraw → same-id re-registration path is exercised, and a served
// WorkerID decodes straight back to the index.
package sim

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/pombm/pombm/internal/cluster"
	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/privacy"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// Config selects what to run.
type Config struct {
	Scenario   Scenario
	Seed       uint64
	Driver     Driver // DriverPlatform when empty
	Nodes      int    // cluster driver backend count; 0 = 3
	CrossCheck bool   // verify every decision against the reference (crossCheck)
}

// Driver selects which layer of the stack the simulator exercises.
type Driver string

// The available drivers. Both serve through a platform.Server, so a
// scenario produces the same assignments under either; the cluster driver
// adds the coordinator's fan-out (routing, scatter-gather windows,
// distributed rotation) across in-process nodes.
const (
	DriverPlatform Driver = "platform" // platform.Server (in-process, no HTTP)
	DriverCluster  Driver = "cluster"  // cluster.Coordinator over in-process nodes
)

func workerName(worker int) string { return "w" + strconv.Itoa(worker) }

type workerState uint8

const (
	wOffline workerState = iota
	wAvailable
	wBusy
)

// simWorker is one worker's ground truth: the true location and lifecycle
// the server never sees. active counts its outstanding assignments; the
// worker is in the pool (wAvailable) exactly while online, not leaving, and
// active < capacity.
type simWorker struct {
	loc     geo.Point
	state   workerState
	active  int      // outstanding assignments
	leaving bool     // stop taking work; go offline at the last completion
	parked  bool     // lifetime ε budget exhausted; offline for good
	code    hst.Code // last accepted report; "" until the first registration

	onlineSince float64
	busySince   float64 // start of the current active ≥ 1 stretch
	onlineTotal float64
	busyTotal   float64
}

type taskStatus uint8

const (
	tPending taskStatus = iota
	tAssigned
	tExpired
)

type simTask struct {
	loc      geo.Point
	code     hst.Code // reported code; drawn at first assignment attempt
	arriveAt float64
	status   taskStatus
}

// sim is one run's mutable state.
type sim struct {
	sc     Scenario
	srv    *platform.Server
	epoch  int64 // serving epoch; reports and tasks are tagged with it
	tree   *hst.Tree
	grid   *geo.Grid
	mech   *privacy.HSTMechanism
	check  *crossCheck
	policy engine.Policy
	cap    int // per-worker capacity units (≥ 1)

	heap eventHeap
	seq  int64
	now  float64

	workers []simWorker
	tasks   []simTask
	pending []int // task indexes awaiting assignment, arrival order

	// Derived randomness, one stream per concern so adding draws to one
	// cannot reseed another.
	workerLocSrc *rng.Source
	taskLocSrc   *rng.Source
	obfSrc       *rng.Source
	lifeSrc      *rng.Source
	serviceSrc   *rng.Source
	churnSrc     *rng.Source

	sampleWorker workload.PointSampler
	sampleTask   workload.PointSampler

	events        int
	expired       int
	assignedTasks int
	waitSum       float64
	levelCounts   []int
	levelSum      int
	treeDistSum   float64
	trueDists     []float64
	freshArrivals int
	returns       int
	departures    int
	registrations int
	rotations     int
	rotatedRep    int // successful rotation re-reports
	parkedCount   int
}

// Run executes the configured scenario and returns its deterministic
// report plus wall-clock stats.
func Run(cfg Config) (*Report, *RunStats, error) {
	if err := cfg.Scenario.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Driver == "" {
		cfg.Driver = DriverPlatform
	}
	if cfg.Nodes < 0 {
		return nil, nil, fmt.Errorf("sim: negative node count %d", cfg.Nodes)
	}
	sc := cfg.Scenario
	root := rng.New(cfg.Seed)

	pol, err := engine.PolicyByName(sc.Policy)
	if err != nil {
		return nil, nil, err
	}
	capacity := sc.Capacity
	if capacity == 0 {
		capacity = 1
	}

	grid, err := geo.NewGrid(sc.region(), sc.GridCols, sc.GridCols)
	if err != nil {
		return nil, nil, err
	}

	// One tree serves both drivers: built from the run seed and injected
	// into the server, so a scenario's assignment decisions — and its
	// report bytes, driver tag aside — coincide across the stack. Rotated
	// epochs coincide too: each staged tree comes from hst.BuildEpoch over
	// the same (seed, epoch) stream.
	tree, err := hst.Build(grid.Points(), root.Derive("sim-hst"))
	if err != nil {
		return nil, nil, err
	}
	var srv *platform.Server
	switch cfg.Driver {
	case DriverPlatform:
		srv, err = platform.NewServer(sc.region(), sc.GridCols, sc.GridCols, sc.Epsilon, cfg.Seed,
			platform.WithLifetimeBudget(sc.LifetimeEps),
			platform.WithPolicy(pol), platform.WithDefaultCapacity(capacity),
			platform.WithTree(tree))
		if err != nil {
			return nil, nil, err
		}
	case DriverCluster:
		// The coordinator's server is a platform.Server over a fanned-out
		// core, so the same handlers drive it verbatim: identical slot,
		// budget, and rotation bookkeeping, with every engine operation
		// routed to in-process nodes by the cut.
		nNodes := cfg.Nodes
		if nNodes == 0 {
			nNodes = 3
		}
		nodes := make([]cluster.NodeConn, nNodes)
		for i := range nodes {
			nodes[i] = cluster.LocalNode(cluster.NewNode())
		}
		coord, err := cluster.New(cluster.Config{
			Region: sc.region(), Cols: sc.GridCols, Rows: sc.GridCols,
			Epsilon: sc.Epsilon, Seed: cfg.Seed,
			Nodes:  nodes,
			Policy: sc.Policy, DefaultCapacity: capacity,
			Lifetime: sc.LifetimeEps, Tree: tree,
		})
		if err != nil {
			return nil, nil, err
		}
		srv = coord.Server()
	default:
		return nil, nil, fmt.Errorf("sim: unknown driver %q", cfg.Driver)
	}
	mech, err := privacy.NewHSTMechanism(tree, sc.Epsilon)
	if err != nil {
		return nil, nil, err
	}

	s := &sim{
		sc:           sc,
		srv:          srv,
		epoch:        srv.Publication().Epoch,
		tree:         tree,
		grid:         grid,
		mech:         mech,
		policy:       pol,
		cap:          capacity,
		workerLocSrc: root.Derive("worker-loc"),
		taskLocSrc:   root.Derive("task-loc"),
		obfSrc:       root.Derive("obfuscate"),
		lifeSrc:      root.Derive("lifetime"),
		serviceSrc:   root.Derive("service"),
		churnSrc:     root.Derive("churn"),
		levelCounts:  make([]int, tree.Depth()+1),
	}
	s.sampleWorker, s.sampleTask = sc.samplers()
	if cfg.CrossCheck {
		topK := 0 // the sequential rule
		if w, ok := pol.(interface{ TopK() int }); ok {
			topK = w.TopK()
		}
		s.check = newCrossCheck(tree, topK)
	}

	if err := s.schedule(root); err != nil {
		return nil, nil, err
	}

	start := time.Now()
	s.loop()
	wall := time.Since(start).Seconds()

	report := s.report(cfg)
	stats := &RunStats{WallSeconds: wall}
	if wall > 0 {
		stats.EventsPerSec = float64(s.events) / wall
	}
	return report, stats, nil
}

// schedule seeds the heap: initial workers at t = 0, fresh worker arrivals
// and tasks at their drawn times, and the batch window ticks.
func (s *sim) schedule(root *rng.Source) error {
	for i := 0; i < s.sc.InitialWorkers; i++ {
		s.newWorker(0)
	}
	for _, t := range workload.PoissonTimes(s.sc.WorkerArrivalRate, s.sc.Duration, root.Derive("worker-times")) {
		s.newWorker(t)
	}
	taskTimes, err := s.sc.TaskRate.Times(root.Derive("task-times"))
	if err != nil {
		return err
	}
	for _, t := range taskTimes {
		s.push(event{at: t, kind: evTaskArrive, task: len(s.tasks)})
		s.tasks = append(s.tasks, simTask{arriveAt: t})
	}
	if s.sc.BatchWindow > 0 {
		s.push(event{at: s.sc.BatchWindow, kind: evBatchTick})
	}
	if s.sc.RotateEvery > 0 {
		for t := s.sc.RotateEvery; t < s.sc.Duration; t += s.sc.RotateEvery {
			s.push(event{at: t, kind: evRotate})
		}
	}
	return nil
}

// newWorker creates a fresh worker arriving at time t.
func (s *sim) newWorker(t float64) {
	s.push(event{at: t, kind: evWorkerArrive, worker: len(s.workers)})
	s.workers = append(s.workers, simWorker{})
}

func (s *sim) push(e event) {
	e.seq = s.seq
	s.seq++
	s.heap.push(e)
}

func (s *sim) loop() {
	for s.heap.Len() > 0 {
		e := s.heap.pop()
		if e.at > s.sc.Duration {
			// Pops come in time order and handlers never schedule into the
			// past, so everything left is past the horizon too: stop here
			// and close the books at Duration.
			break
		}
		s.now = e.at
		s.events++
		switch e.kind {
		case evWorkerArrive:
			s.workerArrive(e.worker)
		case evWorkerDepart:
			s.workerDepart(e.worker)
		case evTaskArrive:
			s.taskArrive(e.task)
		case evTaskExpire:
			s.taskExpire(e.task)
		case evTaskComplete:
			s.taskComplete(e.worker, e.task)
		case evBatchTick:
			s.batchTick()
		case evRotate:
			s.rotate()
		}
	}
	s.closeBooks()
}

// capOf returns worker w's registration capacity: the scenario's uniform
// Capacity, or — under CapacitySkew — the deterministic per-worker mix
// 1 + (w mod CapacitySkew), never above Capacity. Keying on the stable
// worker index keeps a worker's capacity fixed across re-registrations,
// rotations, and drivers.
func (s *sim) capOf(w int) int {
	if s.sc.CapacitySkew <= 0 {
		return s.cap
	}
	c := 1 + w%s.sc.CapacitySkew
	if c > s.cap {
		c = s.cap
	}
	return c
}

// registerWorker starts a new online stint for worker w: a freshly
// obfuscated code of its current true location and a full capacity. It
// reports false — and parks the worker — when the lifetime budget cannot
// afford the fresh report.
func (s *sim) registerWorker(w int) bool {
	wk := &s.workers[w]
	code := s.mech.ObfuscateWalk(s.tree.CodeOf(s.grid.Snap(wk.loc)), s.obfSrc)
	resp := s.srv.Register(platform.RegisterRequest{
		WorkerID: workerName(w), Code: []byte(code), Epoch: s.epoch, Capacity: s.capOf(w),
	})
	switch {
	case resp.Parked:
		s.parkWorker(w)
		return false
	case !resp.OK:
		// Codes come from the mechanism over the same tree; any other
		// refusal is a bug worth surfacing loudly rather than skewing
		// metrics.
		panic(fmt.Sprintf("sim: register worker %d: %s", w, resp.Reason))
	}
	wk.code = code
	wk.state = wAvailable
	wk.active = 0
	s.registrations++
	if s.check != nil {
		s.check.register(w, code, s.capOf(w))
	}
	return true
}

// parkWorker retires a worker whose lifetime ε budget is exhausted: it is
// offline for good — no comeback is ever scheduled.
func (s *sim) parkWorker(w int) {
	wk := &s.workers[w]
	if wk.state != wOffline {
		wk.onlineTotal += s.now - wk.onlineSince
	}
	wk.state = wOffline
	wk.parked = true
	s.parkedCount++
}

func (s *sim) workerArrive(w int) {
	wk := &s.workers[w]
	if wk.state != wOffline || wk.parked {
		return
	}
	wk.loc = s.sampleWorker(s.workerLocSrc)
	wk.leaving = false
	wk.onlineSince = s.now
	if wk.code == "" { // a refused first registration parks for good
		s.freshArrivals++
	} else {
		s.returns++
	}
	if !s.registerWorker(w) {
		return // parked: the arrival happened, the registration was refused
	}
	if s.sc.MeanOnline > 0 {
		s.push(event{at: s.now + s.lifeSrc.Exponential(1/s.sc.MeanOnline), kind: evWorkerDepart, worker: w})
	}
	s.drainPending()
}

// workerDepart ends worker w's online stint. An idle worker leaves
// immediately and may come back; a worker with outstanding tasks stops
// taking new work now — its pooled spare units are withdrawn — finishes
// what it carries, and goes fully offline at its last completion.
func (s *sim) workerDepart(w int) {
	wk := &s.workers[w]
	if wk.state == wOffline {
		return // already left (e.g. completed its last task while leaving)
	}
	// The withdrawal pulls any pooled units out immediately. A fully busy
	// worker has none: the server only marks its stint over, and its
	// completions are acknowledged in taskComplete.
	ok := s.srv.Withdraw(platform.WithdrawRequest{WorkerID: workerName(w)}).OK
	if s.check != nil {
		s.check.withdraw(w)
	}
	if wk.active == 0 {
		if !ok {
			panic(fmt.Sprintf("sim: withdraw of available worker %d failed", w))
		}
		s.goOffline(w)
		return
	}
	wk.leaving = true
	wk.state = wBusy
}

// goOffline finalises a departure and possibly schedules a comeback.
func (s *sim) goOffline(w int) {
	wk := &s.workers[w]
	wk.state = wOffline
	wk.onlineTotal += s.now - wk.onlineSince
	s.departures++
	if s.sc.ReturnProb > 0 && s.churnSrc.Float64() < s.sc.ReturnProb {
		away := s.churnSrc.Exponential(1 / s.sc.MeanAway)
		if at := s.now + away; at < s.sc.Duration {
			s.push(event{at: at, kind: evWorkerArrive, worker: w})
		}
	}
}

func (s *sim) taskArrive(ti int) {
	t := &s.tasks[ti]
	t.loc = s.sampleTask(s.taskLocSrc)
	s.pending = append(s.pending, ti)
	if s.sc.Deadline > 0 {
		s.push(event{at: s.now + s.sc.Deadline, kind: evTaskExpire, task: ti})
	}
	if s.sc.BatchWindow == 0 {
		s.drainPending()
	}
}

func (s *sim) taskExpire(ti int) {
	t := &s.tasks[ti]
	if t.status != tPending {
		return
	}
	t.status = tExpired
	s.expired++
}

// taskComplete hands one capacity unit back: the worker has travelled to
// the task, so its true location is now the task's, and the unit re-enters
// the pool through Release — a re-report at a freshly obfuscated code
// within the same stint, moving any spare pooled units along with it. A
// leaving (or parked) worker's units do not return: each completion is
// acknowledged by a code-less Release, which the server answers by
// counting the task done and refusing the pool re-entry, and the worker
// goes fully offline at its last one.
func (s *sim) taskComplete(w, ti int) {
	wk := &s.workers[w]
	wk.active--
	if wk.active == 0 {
		wk.busyTotal += s.now - wk.busySince
	}
	wk.loc = s.tasks[ti].loc
	if wk.parked || wk.leaving {
		if s.srv.Release(platform.ReleaseRequest{WorkerID: workerName(w)}).OK {
			panic(fmt.Sprintf("sim: finishing worker %d re-entered the pool", w))
		}
		if wk.leaving && wk.active == 0 {
			s.goOffline(w)
		}
		return
	}
	code := s.mech.ObfuscateWalk(s.tree.CodeOf(s.grid.Snap(wk.loc)), s.obfSrc)
	resp := s.srv.Release(platform.ReleaseRequest{WorkerID: workerName(w), Code: []byte(code), Epoch: s.epoch})
	switch {
	case resp.Parked:
		// The post-task re-report is unaffordable: the worker is parked
		// instead of re-entering the pool, its spare units withdrawn.
		if s.check != nil {
			s.check.withdraw(w)
		}
		s.parkWorker(w)
		return
	case !resp.OK:
		panic(fmt.Sprintf("sim: release worker %d: %s", w, resp.Reason))
	}
	wk.code = code
	s.registrations++
	if s.check != nil {
		s.check.release(w, code, s.capOf(w)-wk.active)
	}
	wk.state = wAvailable
	if s.sc.BatchWindow == 0 {
		s.drainPending()
	}
}

// batchTick closes one time-sliced window: all pending tasks are assigned
// as a batch in arrival order; leftovers stay pending for the next window.
func (s *sim) batchTick() {
	s.compactPending() // drop expired tasks in place before batching
	if len(s.pending) > 0 {
		codes := make([]hst.Code, len(s.pending))
		req := platform.TaskBatchRequest{Tasks: make([]platform.TaskRequest, len(s.pending))}
		for i, ti := range s.pending {
			codes[i] = s.obfuscateTask(ti)
			req.Tasks[i] = platform.TaskRequest{Code: []byte(codes[i]), Epoch: s.epoch}
		}
		ws := make([]int, len(codes))
		for i, r := range s.srv.SubmitBatch(req).Results {
			ws[i] = s.decode(r)
		}
		if s.check != nil {
			s.check.observeBatch(codes, ws)
		}
		for i, w := range ws {
			if w != engine.None {
				s.completeAssignment(s.pending[i], codes[i], w)
			}
		}
		s.compactPending() // drop the just-assigned
	}
	if next := s.now + s.sc.BatchWindow; next <= s.sc.Duration {
		s.push(event{at: next, kind: evBatchTick})
	}
}

// rotate swaps the serving epoch: the server publishes a fresh tree and
// every available worker re-reports under it with a freshly obfuscated code
// (a new stint in the new epoch's index), with each re-report spending
// lifetime budget; exhausted workers are parked. Busy workers keep serving
// their assignment and re-report under the new tree at completion. Pending
// tasks re-obfuscate lazily: their old-epoch codes are meaningless under
// the new tree.
func (s *sim) rotate() {
	var order []int
	var names []string
	for i := range s.workers {
		if s.workers[i].state == wAvailable {
			order = append(order, i)
			names = append(names, workerName(i))
		}
	}
	// RotateNow calls report once per listed worker, in order: the rng
	// contract.
	codes := make([]hst.Code, 0, len(order))
	resp := s.srv.RotateNow(platform.PrepareRotateRequest{Refit: s.sc.RotateRefit}, names, func(_ string, tree *hst.Tree) (hst.Code, error) {
		s.useTree(tree)
		wk := &s.workers[order[len(codes)]]
		codes = append(codes, s.mech.ObfuscateWalk(tree.CodeOf(s.grid.Snap(wk.loc)), s.obfSrc))
		return codes[len(codes)-1], nil
	})
	if !resp.OK {
		panic(fmt.Sprintf("sim: rotate: %s", resp.Reason))
	}
	if len(resp.Dropped) > 0 || resp.Skipped > 0 {
		// The simulator lists exactly the available population; the server
		// dropping or skipping any of it means the two disagree about who
		// is online — a bookkeeping bug, not a scenario outcome.
		panic("sim: rotate dropped or skipped listed workers")
	}
	pub := s.srv.Publication()
	s.useTree(pub.Tree) // an empty pool reported nothing under it
	s.epoch = pub.Epoch
	parked := make(map[string]bool, len(resp.Parked))
	for _, name := range resp.Parked {
		parked[name] = true
	}
	for i, w := range order {
		if parked[names[i]] {
			if s.check != nil {
				s.check.withdraw(w)
			}
			s.parkWorker(w)
			continue
		}
		wk := &s.workers[w]
		wk.code = codes[i]
		s.rotatedRep++
		if s.check != nil {
			s.check.register(w, wk.code, s.capOf(w)-wk.active)
		}
	}
	if s.check != nil {
		s.check.retree(pub.Tree)
	}
	for _, ti := range s.pending {
		s.tasks[ti].code = "" // re-draw under the new tree at the next attempt
	}
	s.rotations++
	s.drainPending()
}

// useTree makes tree the one reports and tasks are obfuscated under.
func (s *sim) useTree(tree *hst.Tree) {
	if tree == s.tree {
		return
	}
	mech, err := privacy.NewHSTMechanism(tree, s.sc.Epsilon)
	if err != nil {
		panic(fmt.Sprintf("sim: rotate mechanism: %v", err))
	}
	s.tree, s.mech = tree, mech
}

// obfuscateTask draws the task's reported code. Each task reports once; in
// batch mode the report is drawn when the window containing its assignment
// attempt first closes — subsequent windows reuse it.
func (s *sim) obfuscateTask(ti int) hst.Code {
	t := &s.tasks[ti]
	if t.code == "" {
		snapped := s.tree.CodeOf(s.grid.Snap(t.loc))
		t.code = s.mech.ObfuscateWalk(snapped, s.obfSrc)
	}
	return t.code
}

// drainPending serves the immediate-mode queue: assign the oldest pending
// tasks until one fails (the pool is empty) or the queue drains.
func (s *sim) drainPending() {
	if s.sc.BatchWindow > 0 {
		return
	}
	for len(s.pending) > 0 {
		ti := s.pending[0]
		if s.tasks[ti].status != tPending {
			s.pending = s.pending[1:]
			continue
		}
		code := s.obfuscateTask(ti)
		w := s.decode(s.srv.Submit(platform.TaskRequest{Code: []byte(code), Epoch: s.epoch}))
		if s.check != nil {
			s.check.observe(code, w)
		}
		if w == engine.None {
			return
		}
		s.pending = s.pending[1:]
		s.completeAssignment(ti, code, w)
	}
}

// decode maps a served answer back to its worker's index, and anything
// else — an unassigned task, an id workerName does not write, a worker
// never registered — to engine.None, so the cross-check reports the answer
// instead of blaming a worker that exists.
func (s *sim) decode(resp platform.TaskResponse) int {
	w, err := strconv.Atoi(strings.TrimPrefix(resp.WorkerID, "w"))
	if !resp.Assigned || err != nil || w < 0 || w >= len(s.workers) ||
		workerName(w) != resp.WorkerID || s.workers[w].code == "" {
		return engine.None
	}
	return w
}

// completeAssignment records the match of task ti to worker w and schedules
// the completion. The worker leaves the pool only when the assignment
// consumed its last capacity unit.
func (s *sim) completeAssignment(ti int, taskCode hst.Code, w int) {
	t := &s.tasks[ti]
	t.status = tAssigned
	wk := &s.workers[w]
	if wk.active == 0 {
		wk.busySince = s.now
	}
	wk.active++
	if wk.active >= s.capOf(w) {
		wk.state = wBusy
	}

	lvl := s.tree.LCALevel(taskCode, wk.code)
	for lvl >= len(s.levelCounts) {
		s.levelCounts = append(s.levelCounts, 0) // a rotated tree may be deeper
	}
	s.levelCounts[lvl]++
	s.levelSum += lvl
	s.treeDistSum += hst.LevelDist(lvl)
	s.trueDists = append(s.trueDists, t.loc.Dist(wk.loc))
	s.waitSum += s.now - t.arriveAt
	s.assignedTasks++

	s.push(event{at: s.now + s.serviceSrc.Exponential(1/s.sc.MeanService), kind: evTaskComplete, worker: w, task: ti})
}

// compactPending drops assigned and expired tasks from the queue in place,
// preserving arrival order without allocating.
func (s *sim) compactPending() {
	live := s.pending[:0]
	for _, ti := range s.pending {
		if s.tasks[ti].status == tPending {
			live = append(live, ti)
		}
	}
	s.pending = live
}

// closeBooks accrues online/busy time up to the horizon for workers still
// active at the end.
func (s *sim) closeBooks() {
	s.now = s.sc.Duration
	for i := range s.workers {
		wk := &s.workers[i]
		if wk.state != wOffline {
			if wk.active > 0 {
				wk.busyTotal += s.now - wk.busySince
			}
			wk.onlineTotal += s.now - wk.onlineSince
		}
	}
}

func (s *sim) report(cfg Config) *Report {
	r := &Report{
		Scenario:     s.sc.Name,
		Seed:         cfg.Seed,
		Driver:       string(cfg.Driver),
		GridCols:     s.sc.GridCols,
		Capacity:     s.sc.Capacity,
		CapacitySkew: s.sc.CapacitySkew,
		Epsilon:      s.sc.Epsilon,
		Depth:        s.tree.Depth(),
		Degree:       s.tree.Degree(),
		SimDuration:  s.sc.Duration,
		Events:       s.events,
	}
	if s.policy.Name() != engine.Greedy().Name() {
		r.Policy = s.policy.Name()
	}

	arrived := len(s.tasks)
	pendingAtEnd := 0
	for i := range s.tasks {
		if s.tasks[i].status == tPending {
			pendingAtEnd++
		}
	}
	r.Tasks = TaskMetrics{
		Arrived:      arrived,
		Assigned:     s.assignedTasks,
		Expired:      s.expired,
		PendingAtEnd: pendingAtEnd,
	}
	if arrived > 0 {
		r.Tasks.AssignmentRate = float64(s.assignedTasks) / float64(arrived)
	}
	if s.assignedTasks > 0 {
		r.Tasks.MeanWait = s.waitSum / float64(s.assignedTasks)
	}

	r.Match = MatchMetrics{
		LevelCounts: s.levelCounts,
		TrueDist:    quantiles(s.trueDists),
	}
	if s.assignedTasks > 0 {
		r.Match.MeanLevel = float64(s.levelSum) / float64(s.assignedTasks)
		r.Match.MeanTreeDist = s.treeDistSum / float64(s.assignedTasks)
	}

	var onlineAtEnd, availableAtEnd int
	var busyTotal, onlineTotal float64
	for i := range s.workers {
		wk := &s.workers[i]
		busyTotal += wk.busyTotal
		onlineTotal += wk.onlineTotal
		if wk.state != wOffline {
			onlineAtEnd++
		}
		if wk.state == wAvailable {
			availableAtEnd++
		}
	}
	r.Workers = WorkerMetrics{
		Arrived:        s.freshArrivals,
		Returns:        s.returns,
		Departed:       s.departures,
		Registrations:  s.registrations,
		OnlineAtEnd:    onlineAtEnd,
		AvailableAtEnd: availableAtEnd,
	}
	if onlineTotal > 0 {
		r.Workers.Utilisation = busyTotal / onlineTotal
	}

	if s.sc.RotateEvery > 0 || s.sc.LifetimeEps > 0 {
		st := s.srv.Stats() // zero budget totals without a lifetime budget
		r.Epochs = &EpochMetrics{
			Rotations:      s.rotations,
			FinalEpoch:     st.Epoch,
			RotatedReports: s.rotatedRep,
			ParkedWorkers:  s.parkedCount,
			BudgetLimit:    st.BudgetLimit,
			BudgetSpent:    st.BudgetSpentTotal,
		}
	}

	if s.check != nil {
		r.Check = &CrossCheckReport{
			Checked:        s.check.checked,
			Violations:     s.check.nViolations,
			PoolConsistent: s.srv.Stats().AvailableWorkers == len(s.check.avail),
			Samples:        s.check.samples,
		}
	}
	return r
}
