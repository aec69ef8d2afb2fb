package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"

	"github.com/pombm/pombm/internal/cluster"
	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/flow"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/wire"
	"github.com/pombm/pombm/internal/workload"
)

// Layer probes: each package's hot calls timed directly, outside any
// workload, on inputs with the tape's distribution. They are the numbers a
// change to one layer should move first; README.md says which end-to-end
// metric each is expected to move, and on which workload.

const (
	probeIndexItems = 262144 // the engine-churn population
	probeCalls      = 65536
	ladderTasks     = 4096
)

// probeLayers fills the workload-independent per-layer metrics.
func probeLayers(seed uint64, quick bool, layer map[string]float64) error {
	items, calls := probeIndexItems, probeCalls
	if quick {
		items, calls = 16384, 4096
	}
	grid, err := geo.NewGrid(region, gridSide, gridSide)
	if err != nil {
		return err
	}

	// hst.Build on the grid: median of three.
	var tree *hst.Tree
	var builds []float64
	for i := 0; i < 3; i++ {
		t0 := now()
		if tree, err = hst.Build(grid.Points(), rng.New(serverSeed).Derive("server-hst")); err != nil {
			return err
		}
		builds = append(builds, float64(now()-t0)/1e6)
		if quick {
			break
		}
	}
	layer["hst.build_ms"] = median(builds)

	// privacy: one Obfuscator.Obfuscate per point.
	src := rng.New(seed).Derive("probe")
	uniform := workload.UniformSampler(region)
	pts := make([]geo.Point, items+calls)
	for i := range pts {
		pts[i] = uniform(src)
	}
	ob, err := platform.NewObfuscator(publicationFor(tree, engine.FirstEpoch), src.Derive("obfuscator").Seed())
	if err != nil {
		return err
	}
	codes := make([]hst.Code, len(pts))
	t0 := now()
	for i, p := range pts {
		codes[i] = ob.Obfuscate(p)
	}
	layer["privacy.obfuscate_ns"] = float64(now()-t0) / float64(len(pts))

	// hst.LeafIndex at the engine-churn population: insert everything, mine
	// without consuming, pop, remove.
	idx := hst.NewLeafIndexDegree(tree.Depth(), tree.Degree())
	t0 = now()
	for i := 0; i < items; i++ {
		if err := idx.Insert(codes[i], i); err != nil {
			return fmt.Errorf("probe insert: %w", err)
		}
	}
	layer["hst.insert_ns"] = float64(now()-t0) / float64(items)
	queries := codes[items:]
	refs := make([]hst.CandidateRef, 0, engine.DefaultBatchTopK)
	t0 = now()
	for _, q := range queries {
		refs = idx.NearestKRef(q, engine.DefaultBatchTopK, refs[:0])
	}
	layer["hst.mine_k8_ns"] = float64(now()-t0) / float64(len(queries))

	// flow: Reset + AddArc + Run on 64-task × 8-candidate windows mined
	// from this index — the shape batch-window's small batches solve.
	layer["flow.solve_us_per_window"] = probeFlow(idx, queries)

	popped := make([]int, 0, len(queries))
	t0 = now()
	for _, q := range queries {
		if id, _, ok := idx.PopNearest(q); ok {
			popped = append(popped, id)
		}
	}
	layer["hst.pop_ns"] = float64(now()-t0) / float64(len(queries))
	gone := make(map[int]bool, len(popped))
	for _, id := range popped {
		gone[id] = true
	}
	removed := 0
	t0 = now()
	for i := 0; i < items && removed < calls; i++ {
		if !gone[i] && idx.Remove(codes[i], i) {
			removed++
		}
	}
	layer["hst.remove_ns"] = float64(now()-t0) / float64(max(removed, 1))

	probeWire(codes[0], calls, layer)
	return nil
}

// probeFlow solves windows of 64 tasks with 8 mined candidates each and
// returns the median microseconds per window.
func probeFlow(idx *hst.LeafIndex, queries []hst.Code) float64 {
	const tasks, k = 64, engine.DefaultBatchTopK
	solver := flow.NewBipartite()
	var refs []hst.CandidateRef
	var per []float64
	for lo := 0; lo+tasks <= len(queries) && len(per) < 256; lo += tasks {
		refs = refs[:0]
		counts := make([]int, tasks)
		for t := 0; t < tasks; t++ {
			n := len(refs)
			refs = idx.NearestKRef(queries[lo+t], k, refs)
			counts[t] = len(refs) - n
		}
		col := map[int32]int{}
		for _, r := range refs {
			if _, ok := col[r.ID]; !ok {
				col[r.ID] = len(col)
			}
		}
		t0 := now()
		solver.Reset(tasks, len(col))
		for _, w := range col {
			solver.SetWorker(w, 1, 0)
		}
		at := 0
		for t := 0; t < tasks; t++ {
			for j := 0; j < counts[t]; j++ {
				r := refs[at]
				at++
				if err := solver.AddArc(t, col[r.ID], hst.LevelDist(int(r.Level))); err != nil {
					panic(err) // arcs are added in task order with finite costs
				}
			}
		}
		solver.Run()
		per = append(per, float64(now()-t0)/1e3)
	}
	return median(per)
}

// probeWire times the pooled codec on the submit path's two messages and
// counts its allocations per message.
func probeWire(code hst.Code, calls int, layer map[string]float64) {
	req := platform.TaskRequest{TaskID: "t", Code: []byte(code)}
	resp := platform.TaskResponse{Assigned: true, WorkerID: "w12345", Epoch: 1}
	bufs := [2]*wire.Buf{wire.Get(), wire.Get()}
	defer wire.Put(bufs[0])
	defer wire.Put(bufs[1])
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var encNs, decNs int64
	for i := 0; i < calls; i++ {
		bufs[0].Reset()
		bufs[1].Reset()
		t0 := now()
		err0 := bufs[0].Encode(req)
		err1 := bufs[1].Encode(resp)
		t1 := now()
		var gotReq platform.TaskRequest
		var gotResp platform.TaskResponse
		err2 := bufs[0].Unmarshal(&gotReq)
		err3 := bufs[1].Unmarshal(&gotResp)
		t2 := now()
		if err0 != nil || err1 != nil || err2 != nil || err3 != nil || gotResp.WorkerID != resp.WorkerID {
			panic("wire probe: codec round trip failed")
		}
		encNs += t1 - t0
		decNs += t2 - t1
	}
	runtime.ReadMemStats(&ms1)
	layer["wire.encode_ns"] = float64(encNs) / float64(2*calls)
	layer["wire.decode_ns"] = float64(decNs) / float64(2*calls)
	layer["wire.allocs_per_msg"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(2*calls)
}

// ---- the submit ladder ----

// The ladder plays the first 4,096 cycles of the lifecycle tape with one
// goroutine through six entry points, each one public seam deeper than the
// last, so adjacent rungs subtract to the cost of the layer between them.
// A rung's figure is the exact median wall time of a cycle (task +
// hand-back); a mean would let one GC pause reorder neighbouring rungs.

// engineAPI is rung one: the engine behind the agent-facing call shapes.
type engineAPI struct {
	eng   *engine.Engine
	names []string
}

func (a engineAPI) Submit(req platform.TaskRequest) platform.TaskResponse {
	w, _, ok := a.eng.Assign(hst.Code(req.Code))
	if !ok {
		return platform.TaskResponse{Reason: "no worker"}
	}
	return platform.TaskResponse{Assigned: true, WorkerID: a.names[w]}
}

func (a engineAPI) Release(req platform.ReleaseRequest) platform.RegisterResponse {
	err := a.eng.InsertEpoch(hst.Code(req.Code), workerIndex(req.WorkerID), engine.FirstEpoch)
	return platform.RegisterResponse{OK: err == nil}
}

func (a engineAPI) Register(req platform.RegisterRequest) platform.RegisterResponse {
	return a.Release(platform.ReleaseRequest{WorkerID: req.WorkerID, Code: req.Code})
}

func (engineAPI) Withdraw(platform.WithdrawRequest) platform.RegisterResponse {
	return platform.RegisterResponse{Reason: "the ladder never withdraws"}
}

// handlerAPI is rung three: platform.Handler driven in memory — codec and
// routing, no sockets.
type handlerAPI struct{ h http.Handler }

func (a handlerAPI) post(path string, in, out any) bool {
	cb := wire.Get()
	defer wire.Put(cb)
	if cb.Encode(in) != nil {
		return false
	}
	req := httptest.NewRequest(http.MethodPost, path, cb.Reader())
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	a.h.ServeHTTP(rr, req)
	return rr.Code == http.StatusOK && json.Unmarshal(rr.Body.Bytes(), out) == nil
}

func (a handlerAPI) Submit(req platform.TaskRequest) (resp platform.TaskResponse) {
	a.post(platform.PathTask, req, &resp)
	return resp
}

func (a handlerAPI) Release(req platform.ReleaseRequest) (resp platform.RegisterResponse) {
	a.post(platform.PathRelease, req, &resp)
	return resp
}

func (a handlerAPI) Register(req platform.RegisterRequest) (resp platform.RegisterResponse) {
	a.post(platform.PathRegister, req, &resp)
	return resp
}

func (a handlerAPI) Withdraw(req platform.WithdrawRequest) (resp platform.RegisterResponse) {
	a.post(platform.PathWithdraw, req, &resp)
	return resp
}

// probeLadder fills the six rung metrics and returns the failures the
// rungs' own answer checks found.
func probeLadder(seed uint64, quick bool, layer map[string]float64) (attempted, failed int64, failure string, err error) {
	sp, _ := specByName("serve-lifecycle")
	sp.churnEvery = 0
	workers := sp.workers
	if quick {
		workers = sp.quickWorkers
	}
	tape := GenerateTape(seed, sp.tape, workers, ladderTasks, 0)
	names := make([]string, workers)
	for w := range names {
		names[w] = workerName(w)
	}
	tree, err := serverTree()
	if err != nil {
		return 0, 0, "", err
	}
	codes, err := obfuscate(publicationFor(tree, engine.FirstEpoch), seed, "tape", tape.Points)
	if err != nil {
		return 0, 0, "", err
	}

	// server builds a platform.Server over a fresh engine (rungs 2–4).
	server := func() (*platform.Server, error) {
		eng, err := engine.New(tree, 0)
		if err != nil {
			return nil, err
		}
		return platform.NewServer(region, gridSide, gridSide, epsilon, serverSeed,
			platform.WithCore(eng), platform.WithLifetimeBudget(lifetimeBudget))
	}
	// coordinator builds a cluster over three nodes, in-process or each on
	// its own loopback listener (rungs 5–6), behind a loopback listener.
	coordinator := func(st *stack, overHTTP bool) (*platform.Server, error) {
		conns := make([]cluster.NodeConn, clusterNodes)
		var hc *http.Client
		if overHTTP {
			hc = &http.Client{Transport: st.ownTransport()}
		}
		for i := range conns {
			node := cluster.NewNode()
			if !overHTTP {
				conns[i] = cluster.LocalNode(node)
				continue
			}
			url, err := st.listen(cluster.NodeHandler(node))
			if err != nil {
				return nil, err
			}
			conns[i] = cluster.DialNodeClient(url, hc)
		}
		coord, err := cluster.New(cluster.Config{
			Region: region, Cols: gridSide, Rows: gridSide, Epsilon: epsilon, Seed: serverSeed,
			Nodes: conns, Lifetime: lifetimeBudget, Tree: tree,
		})
		if err != nil {
			return nil, err
		}
		return coord.Server(), nil
	}

	rungs := []struct {
		metric string
		build  func(st *stack) (lifecycleAPI, error)
	}{
		{"engine.rung_assign_ns", func(st *stack) (lifecycleAPI, error) {
			var err error
			st.eng, err = engine.New(tree, 0)
			return engineAPI{eng: st.eng, names: names}, err
		}},
		{"platform.rung_submit_ns", func(st *stack) (lifecycleAPI, error) {
			var err error
			st.srv, err = server()
			return st.srv, err
		}},
		{"platform.rung_handler_ns", func(st *stack) (lifecycleAPI, error) {
			var err error
			if st.srv, err = server(); err != nil {
				return nil, err
			}
			return handlerAPI{h: platform.Handler(st.srv)}, nil
		}},
		{"platform.rung_http_ns", func(st *stack) (lifecycleAPI, error) {
			var err error
			if st.srv, err = server(); err != nil {
				return nil, err
			}
			return st.serveHTTP()
		}},
		{"cluster.rung_local_ns", func(st *stack) (lifecycleAPI, error) {
			var err error
			if st.srv, err = coordinator(st, false); err != nil {
				return nil, err
			}
			return st.serveHTTP()
		}},
		{"cluster.rung_http_ns", func(st *stack) (lifecycleAPI, error) {
			var err error
			if st.srv, err = coordinator(st, true); err != nil {
				return nil, err
			}
			return st.serveHTTP()
		}},
	}
	for _, rung := range rungs {
		st := &stack{spec: sp}
		api, err := rung.build(st)
		if err != nil {
			st.close()
			return 0, 0, "", fmt.Errorf("%s: %w", rung.metric, err)
		}
		r := &run{sp: sp, tape: tape, st: st, codes: codes, names: names, epoch: engine.FirstEpoch,
			pool: newPool(workers, 0, 1)}
		if err := r.load(); err != nil {
			st.close()
			return 0, 0, "", fmt.Errorf("%s: %w", rung.metric, err)
		}
		c := &client{api: api}
		r.lifecycleLoop(c, 0, 256, 1) // connections and pools warm
		per := make([]float64, 0, ladderTasks-256)
		for i := 256; i < ladderTasks; i++ {
			t0 := now()
			r.lifecycleLoop(c, i, i+1, 1)
			per = append(per, float64(now()-t0))
		}
		layer[rung.metric] = median(per)
		r.conserve([]*client{c})
		st.close()
		attempted += r.pool.attempted.Load()
		failed += r.pool.failed.Load()
		if failure == "" {
			failure = r.firstFailure()
		}
	}
	return attempted, failed, failure, nil
}

// serveHTTP mounts the stack's server on a loopback listener and returns
// an agent client for it.
func (st *stack) serveHTTP() (lifecycleAPI, error) {
	url, err := st.listen(platform.Handler(st.srv))
	if err != nil {
		return nil, err
	}
	st.url, st.transport = url, st.ownTransport()
	cl, _ := st.agentClient()
	return cl, nil
}
