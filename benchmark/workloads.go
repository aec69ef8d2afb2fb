package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"strconv"
	"sync"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/rng"
)

// One cycle is one task answered and the assigned worker handed back:
//
//	engine-churn   Assign → InsertEpoch at the worker's next obfuscated
//	               position; 1 cycle in 16 also relocates an idle worker
//	               (Remove + InsertEpoch).
//	*-lifecycle    Client.Submit → Client.Release with a fresh code; every
//	               8th cycle also Withdraws an idle worker and Registers a
//	               new id in its place.
//	batch-window   SubmitBatch, then Release for each assigned worker.
//
// The loops are closed: a client sends its next request only after the
// previous one completed.

// engineSampleEvery: engine-churn times one cycle in this many per client,
// so that reading the clock (≈ 50 ns against a ≈ 1 µs cycle) stays off the
// throughput figure. It is prime, so it shares no factor with the churn
// period and relocations are timed in the proportion they occur (with 64,
// a timed cycle would never be a relocating one). The lifecycle and batch
// loops time every call.
const engineSampleEvery = 61

// lifecycleAPI is the agent-facing surface the lifecycle loop drives:
// *platform.Client over HTTP on the workloads, and each shallower entry
// point on the submit ladder.
type lifecycleAPI interface {
	Submit(platform.TaskRequest) platform.TaskResponse
	Release(platform.ReleaseRequest) platform.RegisterResponse
	Withdraw(platform.WithdrawRequest) platform.RegisterResponse
	Register(platform.RegisterRequest) platform.RegisterResponse
}

// run is one repetition's state shared by its clients.
type run struct {
	sp    spec
	tape  *Tape
	st    *stack
	pool  *pool
	codes []hst.Code // the tape, obfuscated under the serving epoch
	names []string   // worker index → external id
	epoch int64

	// Pre-check only: the brute-force mirror and the running FNV-1a digest
	// of the (cycle, worker) assignments.
	chk    *mirror
	digest hash.Hash64
}

// client is one closed-loop client and its private tallies; nothing here
// is shared, so recording takes no lock.
type client struct {
	id  int
	api lifecycleAPI
	rt  *agentRoundTripper // traced lifecycle repetitions only

	task, worker Histogram
	tasks        int
	dist         float64
	released     int
	withdrawn    int
	// callNs is the time inside program calls and cycleNs the wall time of
	// the same (timed) cycles; the difference is the harness's own cost.
	callNs, cycleNs int64
	timedCycles     int64
}

// newClient returns client id wired to the stack's agent-facing surface:
// HTTP where it has a listener, the server in-process otherwise, nothing
// on engine-churn (its loop calls the engine).
func (st *stack) newClient(id int) *client {
	c := &client{id: id}
	switch {
	case st.url != "":
		c.api, c.rt = st.agentClient()
	case st.srv != nil:
		c.api = st.srv
	}
	return c
}

func workerName(w int) string { return "w" + strconv.Itoa(w) }

// maxClients bounds -clients: a tape carries that many spare churn events,
// because every client numbers its own.
const maxClients = 64

// churnEvent reports whether cycle i, played by a client striding over the
// tape, also carries a churn event, and which. The period counts the
// client's own cycles — counting tape cycles would hand every event to the
// clients whose stripe shares the period's parity — and the event index is
// unique across clients. With one client event k falls on cycle
// k·every + every − 1.
func (r *run) churnEvent(i, stride int) (k int, ok bool) {
	every := r.sp.churnEvery
	if every == 0 {
		return 0, false
	}
	own := i / stride
	if own%every != every-1 {
		return 0, false
	}
	return own/every*stride + i%stride, true
}

func workerIndex(id string) int {
	if len(id) < 2 || id[0] != 'w' {
		return -1
	}
	w, err := strconv.Atoi(id[1:])
	if err != nil {
		return -1
	}
	return w
}

// assigned is the bookkeeping every loop shares once a task came back with
// worker w: legality against the shadow pool, the pre-check's exact answer,
// and the travel distance between the task's and the worker's true points.
func (r *run) assigned(c *client, cycle, taskRef, w, level int, since int64) bool {
	r.pool.attempted.Add(1)
	if !r.pool.took(cycle, w, since) {
		return false
	}
	if r.chk != nil {
		if r.sp.capacity > 1 {
			if !r.chk.has(w) {
				r.pool.fail("cycle %d: batch-optimal assigned worker %d, which holds no unit", cycle, w)
			}
		} else if want, wantLevel := r.chk.nearest(r.codes[taskRef]); want != w || (level >= 0 && level != wantLevel) {
			r.pool.fail("cycle %d: assigned worker %d at level %d, the sequential rule gives %d at level %d", cycle, w, level, want, wantLevel)
		}
		r.chk.take(w)
		binary.Write(r.digest, binary.LittleEndian, [2]int64{int64(cycle), int64(w)})
	}
	c.tasks++
	c.dist += r.tape.Points[taskRef].Dist(r.tape.Points[r.pool.at[w].Load()])
	return true
}

// refused counts a task that came back without a worker. The populations
// dwarf the client count, so the pool is never empty and every refusal is
// a failure (and, as a failed task, is missing from every latency figure).
func (r *run) refused(cycle int, reason string) {
	r.pool.attempted.Add(1)
	r.pool.fail("cycle %d: task refused on a non-empty pool: %s", cycle, reason)
}

// span records a harness-timed call on traced repetitions.
func (r *run) span(id uint32, kind spanKind, cycle, n int, start, end int64) {
	if r.st.rec != nil {
		r.st.rec.Put(id, Span{Kind: kind, Req: int32(cycle), N: int32(n), Start: start, End: end})
	}
}

// claim reserves a span id for the call a client is about to make and, on
// HTTP clients, announces it to the client's round tripper.
func (r *run) claim(c *client) uint32 {
	if r.st.rec == nil {
		return 0
	}
	id := r.st.rec.Claim()
	if c.rt != nil {
		c.rt.parent = id
	}
	return id
}

// ---- engine-churn ----

func (r *run) engineLoop(c *client, lo, hi, stride int) {
	eng, p, t := r.st.eng, r.pool, r.tape
	for i := lo + c.id; i < hi; i += stride {
		timed := (i/stride)%engineSampleEvery == 0
		var t0, t1, t2, t3 int64
		taskRef := t.taskRef(i)
		if timed {
			t0 = now()
		}
		w, level, ok := eng.Assign(r.codes[taskRef])
		if timed {
			t1 = now()
		}
		if !ok {
			r.refused(i, "engine.Assign found no worker")
			continue
		}
		if !r.assigned(c, i, taskRef, w, level, 0) {
			continue
		}
		ref := t.returnRef(i)
		p.giveBack(w, ref)
		if timed {
			t2 = now()
		}
		err := eng.InsertEpoch(r.codes[ref], w, r.epoch)
		if timed {
			t3 = now()
			c.task.Record(t1 - t0)
			c.worker.Record(t3 - t2)
			r.span(r.claim(c), kCoreAssign, i, 1, t0, t1)
			r.span(r.claim(c), kCoreInsert, i, 1, t2, t3)
		}
		p.attempted.Add(1)
		if err != nil {
			p.fail("cycle %d: InsertEpoch: %v", i, err)
		}
		if r.chk != nil {
			r.chk.put(w, r.codes[ref], 1)
		}
		c.released++
		calls := (t1 - t0) + (t3 - t2)
		if k, ok := r.churnEvent(i, stride); ok {
			calls += r.relocate(c, i, k, timed)
		}
		if timed {
			c.cycleNs += now() - t0
			c.callNs += calls
			c.timedCycles++
		}
	}
}

// relocate moves an idle worker: Remove at its reported code, InsertEpoch
// at a new one. Losing the race for the worker to another client's Assign
// is not an error — Remove then finds nothing and the event is skipped.
func (r *run) relocate(c *client, cycle, k int, timed bool) (callNs int64) {
	eng, p, t := r.st.eng, r.pool, r.tape
	v := p.pickIdle(t.Pick[k])
	if v < 0 {
		return 0
	}
	var t0, t1, t2 int64
	if timed {
		t0 = now()
	}
	found := eng.Remove(r.codes[p.at[v].Load()], v)
	if timed {
		t1 = now()
	}
	if !found {
		if r.chk != nil {
			p.fail("cycle %d: Remove of idle worker %d found nothing", cycle, v)
		}
		return t1 - t0
	}
	ref := t.churnRef(k)
	p.at[v].Store(uint32(ref))
	err := eng.InsertEpoch(r.codes[ref], v, r.epoch)
	if timed {
		t2 = now()
		c.worker.Record(t1 - t0)
		c.worker.Record(t2 - t1)
		r.span(r.claim(c), kCoreRemove, cycle, 1, t0, t1)
		r.span(r.claim(c), kCoreInsert, cycle, 1, t1, t2)
	}
	p.attempted.Add(2)
	if err != nil {
		p.fail("cycle %d: relocating InsertEpoch: %v", cycle, err)
	}
	if r.chk != nil {
		r.chk.drop(v)
		r.chk.put(v, r.codes[ref], 1)
	}
	return t2 - t0
}

// ---- serve-lifecycle, cluster-lifecycle, and the ladder's rungs ----

func (r *run) lifecycleLoop(c *client, lo, hi, stride int) {
	p, t := r.pool, r.tape
	for i := lo + c.id; i < hi; i += stride {
		taskRef := t.taskRef(i)
		since := p.clock.Load()
		id := r.claim(c)
		t0 := now()
		resp := c.api.Submit(platform.TaskRequest{TaskID: "t", Code: []byte(r.codes[taskRef])})
		t1 := now()
		r.span(id, kClientSubmit, i, 1, t0, t1)
		calls := t1 - t0
		if !resp.Assigned {
			r.refused(i, resp.Reason)
			continue
		}
		c.task.Record(t1 - t0)
		w := workerIndex(resp.WorkerID)
		if !r.assigned(c, i, taskRef, w, -1, since) {
			continue
		}
		calls += r.release(c, i, w, t.returnRef(i))
		if k, ok := r.churnEvent(i, stride); ok {
			calls += r.replace(c, i, k)
		}
		c.cycleNs += now() - t0
		c.callNs += calls
		c.timedCycles++
	}
}

// release hands worker w back at tape index ref with a freshly obfuscated
// code. A refusal is legal only when another client's Withdraw raced this
// assignment: the worker finished its task but left the platform.
func (r *run) release(c *client, cycle, w, ref int) (callNs int64) {
	p := r.pool
	p.giveBack(w, ref)
	id := r.claim(c)
	t0 := now()
	resp := c.api.Release(platform.ReleaseRequest{WorkerID: r.names[w], Code: []byte(r.codes[ref])})
	t1 := now()
	r.span(id, kClientRelease, cycle, 1, t0, t1)
	c.worker.Record(t1 - t0)
	p.attempted.Add(1)
	switch {
	case resp.OK:
		c.released++
		if r.chk != nil {
			r.chk.put(w, r.codes[ref], 1)
		}
	case p.goneAt[w].Load() != 0:
		p.avail[w].Add(-1)
	default:
		p.fail("cycle %d: release of worker %d refused: %s", cycle, w, resp.Reason)
	}
	return t1 - t0
}

// replace withdraws an idle worker and registers a new id in its place.
func (r *run) replace(c *client, cycle, k int) (callNs int64) {
	p, t := r.pool, r.tape
	v := p.pickIdle(t.Pick[k])
	if v < 0 || !p.goneAt[v].CompareAndSwap(0, -1) {
		return 0
	}
	id := r.claim(c)
	t0 := now()
	resp := c.api.Withdraw(platform.WithdrawRequest{WorkerID: r.names[v]})
	t1 := now()
	r.span(id, kClientWithdraw, cycle, 1, t0, t1)
	c.worker.Record(t1 - t0)
	p.goneAt[v].Store(p.clock.Add(1))
	p.avail[v].Add(-1)
	p.attempted.Add(1)
	if !resp.OK {
		p.fail("cycle %d: withdraw of idle worker %d refused: %s", cycle, v, resp.Reason)
	}
	c.withdrawn++
	if r.chk != nil {
		r.chk.drop(v)
	}

	// The newcomer is published to the shadow before the call that makes it
	// assignable, flagged in flight so no other client picks it for a
	// withdrawal before the platform knows it.
	ref := t.churnRef(k)
	nw := int(p.next.Add(1)) - 1
	p.goneAt[nw].Store(-1)
	p.at[nw].Store(uint32(ref))
	p.avail[nw].Store(p.capacity)
	id = r.claim(c)
	t2 := now()
	reg := c.api.Register(platform.RegisterRequest{WorkerID: r.names[nw], Code: []byte(r.codes[ref])})
	t3 := now()
	r.span(id, kClientRegister, cycle, 1, t2, t3)
	c.worker.Record(t3 - t2)
	p.goneAt[nw].Store(0)
	p.attempted.Add(1)
	if !reg.OK {
		p.fail("cycle %d: register of worker %d refused: %s", cycle, nw, reg.Reason)
	}
	if r.chk != nil {
		r.chk.put(nw, r.codes[ref], int(p.capacity))
	}
	return (t1 - t0) + (t3 - t2)
}

// ---- batch-window ----

func (r *run) batchLoop(c *client, lo, hi int) {
	srv, t := r.st.srv, r.tape
	sizes := batchPattern()
	req := platform.TaskBatchRequest{Tasks: make([]platform.TaskRequest, 0, 512)}
	workers := make([]int, 0, 512)
	for pos := lo; pos < hi; {
		for _, n := range sizes {
			n = min(n, hi-pos)
			if n == 0 {
				break
			}
			req.Tasks = req.Tasks[:0]
			for j := 0; j < n; j++ {
				req.Tasks = append(req.Tasks, platform.TaskRequest{TaskID: "t", Code: []byte(r.codes[t.taskRef(pos+j)])})
			}
			id := r.claim(c)
			t0 := now()
			resp := srv.SubmitBatch(req)
			t1 := now()
			r.span(id, kClientBatch, pos, n, t0, t1)
			calls := t1 - t0
			workers = workers[:0]
			ok := 0
			for j, res := range resp.Results {
				if !res.Assigned {
					r.refused(pos+j, res.Reason)
					workers = append(workers, -1)
					continue
				}
				w := workerIndex(res.WorkerID)
				if !r.assigned(c, pos+j, t.taskRef(pos+j), w, -1, 0) {
					w = -1
				} else {
					ok++
				}
				workers = append(workers, w)
			}
			c.task.RecordN(t1-t0, ok)
			for j, w := range workers {
				if w >= 0 {
					calls += r.release(c, pos+j, w, t.returnRef(pos+j))
				}
			}
			c.cycleNs += now() - t0
			c.callNs += calls
			c.timedCycles += int64(n)
			pos += n
		}
	}
}

// phase plays cycles [lo, hi) of the tape across the clients, striped so
// the interleaving stays close to tape order, and returns the wall time
// from the common start to the last client finishing.
func (r *run) phase(clients []*client, lo, hi int) int64 {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			switch r.sp.name {
			case "engine-churn":
				r.engineLoop(c, lo, hi, len(clients))
			case "batch-window":
				r.batchLoop(c, lo, hi)
			default:
				r.lifecycleLoop(c, lo, hi, len(clients))
			}
		}()
	}
	t0 := now()
	close(start)
	wg.Wait()
	return now() - t0
}

// ---- set-up pieces ----

// obfuscate is the agent role: the tape's true points become leaf codes
// under the given publication, with the mechanism's real distribution
// (fake leaves included).
func obfuscate(pub platform.Publication, seed uint64, label string, pts []geo.Point) ([]hst.Code, error) {
	ob, err := platform.NewObfuscator(pub, rng.New(seed).Derive("agents-"+label).DeriveN("epoch", int(pub.Epoch)).Seed())
	if err != nil {
		return nil, err
	}
	return ob.ObfuscateBatch(pts), nil
}

// load registers the initial population, in index order so that a
// worker's registration id equals its tape index.
func (r *run) load() error {
	for w := 0; w < r.tape.Workers; w++ {
		if r.st.srv == nil {
			if err := r.st.eng.InsertEpoch(r.codes[w], w, r.epoch); err != nil {
				return fmt.Errorf("load worker %d: %w", w, err)
			}
		} else if resp := r.st.srv.Register(platform.RegisterRequest{WorkerID: r.names[w], Code: []byte(r.codes[w])}); !resp.OK {
			return fmt.Errorf("load worker %d: %s", w, resp.Reason)
		}
		if r.chk != nil {
			r.chk.put(w, r.codes[w], r.sp.capacity)
		}
	}
	return nil
}

// rotate performs one full epoch rotation with every live worker
// re-reporting from its current true position, and returns its wall time:
// stage the next tree, collect the fresh reports (client side), commit. On
// cluster-lifecycle the commit is the distributed two-phase rotation.
func (r *run) rotate(seed uint64) (totalNs int64, err error) {
	p := r.pool
	live := make([]int, 0, p.next.Load())
	for w := 0; w < int(p.next.Load()); w++ {
		if p.goneAt[w].Load() == 0 {
			live = append(live, w)
		}
	}
	pts := make([]geo.Point, len(live))
	for i, w := range live {
		pts[i] = r.tape.Points[p.at[w].Load()]
	}
	t0 := now()
	var next platform.Publication
	if r.st.srv == nil {
		grid, gerr := geo.NewGrid(region, gridSide, gridSide)
		if gerr != nil {
			return 0, gerr
		}
		tree, berr := hst.Build(grid.Points(), rng.New(serverSeed).DeriveN("epoch-tree", int(r.epoch+1)))
		if berr != nil {
			return 0, berr
		}
		next = publicationFor(tree, r.epoch+1)
	} else {
		prep := r.st.srv.PrepareRotate(platform.PrepareRotateRequest{})
		if !prep.OK {
			return 0, fmt.Errorf("prepare rotation: %s", prep.Reason)
		}
		next = r.st.srv.Publication()
		next.Tree, next.Epoch = prep.Tree, prep.Epoch
	}
	t1 := now()
	codes, err := obfuscate(next, seed, "rotation", pts)
	if err != nil {
		return 0, err
	}
	t2 := now()
	if r.st.srv == nil {
		err = r.st.eng.SwapEpochSeq(next.Epoch, next.Tree, 0, func(yield func(engine.EpochInsert) bool) {
			for i, w := range live {
				if !yield(engine.EpochInsert{Code: codes[i], ID: w}) {
					return
				}
			}
		})
		if err != nil {
			return 0, fmt.Errorf("swap epoch: %w", err)
		}
	} else {
		reports := make([]platform.WorkerReport, len(live))
		for i, w := range live {
			reports[i] = platform.WorkerReport{WorkerID: r.names[w], Code: []byte(codes[i])}
		}
		t2 = now() // assembling the request is the harness's, not the program's
		resp := r.st.srv.Rotate(platform.RotateRequest{Epoch: next.Epoch, Reports: reports})
		if !resp.OK || resp.Rotated != len(live) {
			return 0, fmt.Errorf("rotation commit: ok=%v rotated=%d of %d: %s", resp.OK, resp.Rotated, len(live), resp.Reason)
		}
	}
	t3 := now()
	if rec := r.st.rec; rec != nil {
		rec.Put(rec.Claim(), Span{Kind: kRotatePrepare, Req: -1, N: 1, Start: t0, End: t1})
		rec.Put(rec.Claim(), Span{Kind: kRotateCommit, Req: -1, N: int32(len(live)), Start: t2, End: t3})
	}
	r.epoch = next.Epoch
	// The old tape codes died with the old tree; only the burst runs under
	// the new one.
	lo := r.tape.burstTaskRef(0)
	burst, err := obfuscate(next, seed, "burst", r.tape.Points[lo:])
	if err != nil {
		return 0, err
	}
	copy(r.codes[lo:], burst)
	return t3 - t0, nil
}

// burst replays a short verified submit stream under the rotated epoch
// with one client: every worker must have survived the rotations.
func (r *run) burst(c *client) {
	t := r.tape
	for i := 0; i < burstCycles; i++ {
		taskRef, ref := t.burstTaskRef(i), t.burstReturnRef(i)
		switch r.sp.name {
		case "engine-churn":
			w, level, ok := r.st.eng.Assign(r.codes[taskRef])
			if !ok {
				r.refused(-1-i, "engine.Assign found no worker after rotation")
				continue
			}
			if r.assigned(c, -1-i, taskRef, w, level, 0) {
				r.pool.giveBack(w, ref)
				if err := r.st.eng.InsertEpoch(r.codes[ref], w, r.epoch); err != nil {
					r.pool.fail("burst %d: InsertEpoch: %v", i, err)
				}
				c.released++
			}
		default:
			since := r.pool.clock.Load()
			resp := c.api.Submit(platform.TaskRequest{TaskID: "t", Code: []byte(r.codes[taskRef]), Epoch: r.epoch})
			if !resp.Assigned {
				r.refused(-1-i, resp.Reason)
				continue
			}
			if w := workerIndex(resp.WorkerID); r.assigned(c, -1-i, taskRef, w, -1, since) {
				r.release(c, -1-i, w, ref)
			}
		}
	}
}

// conserve is the end-of-repetition audit: with every client stopped and
// every assignment handed back, the program's books must match the
// harness's — population, units, and every lifetime counter.
func (r *run) conserve(clients []*client) {
	p := r.pool
	workers, units := p.expectLen()
	var tasks, released, withdrawn int
	for _, c := range clients {
		tasks += c.tasks
		released += c.released
		withdrawn += c.withdrawn
	}
	check := func(what string, got, want int) {
		if got != want {
			p.fail("conservation: %s is %d, the harness counted %d", what, got, want)
		}
	}
	if r.st.srv == nil {
		check("Engine.Len", r.st.eng.Len(), workers)
		check("Engine.CapacityUnits", r.st.eng.CapacityUnits(), units)
		return
	}
	s := r.st.srv.Stats()
	check("Core().Len", r.st.srv.Core().Len(), workers)
	check("available_workers", s.AvailableWorkers, workers)
	check("capacity_units", s.CapacityUnits, units)
	check("registered_workers", s.RegisteredWorkers, int(p.next.Load()))
	check("assigned_tasks", s.AssignedTasks, tasks)
	check("rejected_tasks", s.RejectedTasks, 0)
	check("released_workers", s.ReleasedWorkers, released)
	check("withdrawn_workers", s.WithdrawnWorkers, withdrawn)
	check("parked_workers", s.ParkedWorkers, 0)
	check("dropped_workers", s.DroppedWorkers, 0)
}
