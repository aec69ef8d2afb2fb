package main

// The serving benchmark lane: where -enginebench measures the bare
// assignment engine, -servebench measures what a requester actually
// experiences — the full request path from platform.Client through loopback
// HTTP into platform.Handler and the engine behind it, and (for the
// cluster-* rows) through a coordinator fanning every routed operation out
// to node backends over their own loopback connections. Rows land in the
// same BENCH_engine.json snapshot as the engine rows (merged, not
// overwritten) so the benchdiff gate covers the wire path too.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"time"

	"github.com/pombm/pombm/internal/benchfmt"
	"github.com/pombm/pombm/internal/cluster"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

const serveEpsilon = 0.6

// geoGrid builds the synthetic-region grid the bench lanes share.
func geoGrid(gridCols int) (*geo.Grid, error) {
	return geo.NewGrid(workload.SyntheticRegion, gridCols, gridCols)
}

// appendBenchHistory stamps the snapshot at jsonPath with the current
// revision and time and appends it as one line of the append-only bench
// trajectory (see benchfmt.AppendHistory).
func appendBenchHistory(historyPath, jsonPath string) error {
	if jsonPath == "" {
		return fmt.Errorf("-history needs -json (the snapshot is what gets appended)")
	}
	blob, err := os.ReadFile(jsonPath)
	if err != nil {
		return err
	}
	var rep benchfmt.Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		return fmt.Errorf("%s: %w", jsonPath, err)
	}
	if err := benchfmt.AppendHistory(historyPath, benchfmt.HistoryEntry{
		GitSHA:   gitSHA(),
		UnixTime: time.Now().Unix(),
		Report:   &rep,
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "# appended %s snapshot to %s\n", jsonPath, historyPath)
	return nil
}

// randLeafCodes draws n uniformly random leaf codes of the tree.
func randLeafCodes(tree *hst.Tree, n int, s *rng.Source) []hst.Code {
	out := make([]hst.Code, n)
	for i := range out {
		b := make([]byte, tree.Depth())
		for j := range b {
			b[j] = byte(s.Intn(tree.Degree()))
		}
		out[i] = hst.Code(b)
	}
	return out
}

// loopbackServer mounts a handler on a fresh loopback listener and returns
// its base URL and a shutdown func.
func loopbackServer(h http.Handler) (baseURL string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() { hs.Close() }, nil
}

// runServeBench measures serving throughput over loopback HTTP at several
// client concurrencies. Two lanes: serve-submit drives one platform.Server
// directly; cluster-submit drives a coordinator over `nodes` HTTP node
// backends. Workers are registered during (untimed) setup; the measured
// region is the concurrent Submit stream, so ns/op is end-to-end request
// latency and allocs/op is the whole process's (client + server + backend)
// allocation bill per request.
func runServeBench(gridCols, workers, tasks, shards, repeat int, clientsCSV string, seed uint64, nodes int, jsonPath, historyPath string) error {
	clientCounts, err := parseInts(clientsCSV)
	if err != nil {
		return fmt.Errorf("-clients: %w", err)
	}
	if nodes < 1 {
		return fmt.Errorf("-nodes: need at least 1, got %d", nodes)
	}
	grid, err := geoGrid(gridCols)
	if err != nil {
		return err
	}
	tree, err := hst.Build(grid.Points(), rng.New(seed))
	if err != nil {
		return err
	}
	src := rng.New(seed).Derive("servebench")
	workerCodes := randLeafCodes(tree, workers, src.Derive("workers"))
	taskCodes := randLeafCodes(tree, tasks, src.Derive("tasks"))
	workerIDs := make([]string, workers)
	for i := range workerIDs {
		workerIDs[i] = "w" + strconv.Itoa(i)
	}
	taskIDs := make([]string, tasks)
	for i := range taskIDs {
		taskIDs[i] = "t" + strconv.Itoa(i)
	}

	baseProcs := runtime.GOMAXPROCS(0)
	fmt.Printf("servebench: N=%d D=%d c=%d, %d workers, %d tasks, %d cluster nodes, GOMAXPROCS=%d, NumCPU=%d, best of %d\n\n",
		tree.NumPoints(), tree.Depth(), tree.Degree(), workers, tasks, nodes, baseProcs, runtime.NumCPU(), repeat)
	fmt.Printf("%-16s %9s %6s %12s %12s %14s\n", "path", "clients", "procs", "ns/op", "allocs/op", "ops/sec")

	var rows []benchfmt.Record

	// report runs one row: setup builds the serving stack and returns the
	// measured run plus a teardown. Fresh stack per repetition, so every
	// run starts from a full worker pool and a cold connection pool — the
	// steady-state reuse inside one run is exactly what is being measured.
	report := func(impl string, c int, setup func(c int) (run func() error, teardown func(), err error)) error {
		rowProcs := baseProcs
		if c > rowProcs && runtime.NumCPU() > rowProcs {
			rowProcs = min(c, runtime.NumCPU())
		}
		capped := c > min(rowProcs, runtime.NumCPU())
		if rowProcs != baseProcs {
			runtime.GOMAXPROCS(rowProcs)
			defer runtime.GOMAXPROCS(baseProcs)
		}
		best := time.Duration(0)
		allocs := 0.0
		var ms0, ms1 runtime.MemStats
		for r := 0; r < repeat; r++ {
			run, teardown, err := setup(c)
			if err != nil {
				return err
			}
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			err = run()
			d := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			teardown()
			if err != nil {
				return err
			}
			if best == 0 || d < best {
				best = d
				allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(tasks)
			}
		}
		nsPerOp, opsPerSec := throughput(tasks, best)
		note := ""
		if capped {
			note = "  (capped)"
		}
		fmt.Printf("%-16s %9d %6d %12.0f %12.2f %14.0f%s\n", impl, c, rowProcs, nsPerOp, allocs, opsPerSec, note)
		rows = append(rows, benchfmt.Record{
			Benchmark:   fmt.Sprintf("%s/clients=%d", impl, c),
			Goroutines:  c,
			GOMAXPROCS:  rowProcs,
			Capped:      capped,
			NsPerOp:     nsPerOp,
			AllocsPerOp: allocs,
			TasksPerSec: opsPerSec,
		})
		return nil
	}

	// submitRun splits the task stream across c clients, each driving its
	// chunk through its own platform.Client against baseURL.
	submitRun := func(baseURL string, c int) (run func() error, done func(), err error) {
		cls := make([]*platform.Client, 0, c)
		done = func() {
			for _, cl := range cls {
				cl.Close()
			}
		}
		for len(cls) < c {
			cl, err := platform.NewClient(baseURL)
			if err != nil {
				done()
				return nil, nil, err
			}
			cls = append(cls, cl)
		}
		return func() error {
			errc := make(chan error, c)
			chunk := (len(taskCodes) + c - 1) / c
			started := 0
			for k := 0; k < c; k++ {
				lo := k * chunk
				hi := min(lo+chunk, len(taskCodes))
				if lo >= hi {
					break
				}
				started++
				go func(cl *platform.Client, lo, hi int) {
					for i := lo; i < hi; i++ {
						resp := cl.Submit(platform.TaskRequest{TaskID: taskIDs[i], Code: []byte(taskCodes[i])})
						if resp.Err != nil {
							errc <- fmt.Errorf("submit %s: %s", taskIDs[i], resp.Err.Message)
							return
						}
					}
					errc <- nil
				}(cls[k], lo, hi)
			}
			for k := 0; k < started; k++ {
				if err := <-errc; err != nil {
					return err
				}
			}
			return nil
		}, done, nil
	}

	registerAll := func(srv *platform.Server) error {
		for i := range workerCodes {
			if resp := srv.Register(platform.RegisterRequest{WorkerID: workerIDs[i], Code: []byte(workerCodes[i])}); !resp.OK {
				return fmt.Errorf("register %s: %s", workerIDs[i], resp.Reason)
			}
		}
		return nil
	}

	// Single-server lane.
	serveSetup := func(c int) (func() error, func(), error) {
		opts := []platform.ServerOption{platform.WithTree(tree)}
		if shards > 0 {
			opts = append(opts, platform.WithShards(shards))
		}
		srv, err := platform.NewServer(workload.SyntheticRegion, gridCols, gridCols, serveEpsilon, seed, opts...)
		if err != nil {
			return nil, nil, err
		}
		if err := registerAll(srv); err != nil {
			return nil, nil, err
		}
		baseURL, stop, err := loopbackServer(platform.Handler(srv))
		if err != nil {
			return nil, nil, err
		}
		run, done, err := submitRun(baseURL, c)
		if err != nil {
			stop()
			return nil, nil, err
		}
		return run, func() { done(); stop() }, nil
	}
	for _, c := range clientCounts {
		if err := report("serve-submit", c, serveSetup); err != nil {
			return err
		}
	}

	// Cluster lane: a coordinator over `nodes` HTTP node backends, each on
	// its own loopback listener — every routed operation pays a real second
	// HTTP hop, exactly as a deployment would.
	clusterSetup := func(c int) (func() error, func(), error) {
		var stops []func()
		teardown := func() {
			for i := len(stops) - 1; i >= 0; i-- {
				stops[i]()
			}
		}
		conns := make([]cluster.NodeConn, nodes)
		for i := range conns {
			baseURL, stop, err := loopbackServer(cluster.NodeHandler(cluster.NewNode()))
			if err != nil {
				teardown()
				return nil, nil, err
			}
			stops = append(stops, stop)
			conns[i] = cluster.DialNode(baseURL)
		}
		coord, err := cluster.New(cluster.Config{
			Region: workload.SyntheticRegion, Cols: gridCols, Rows: gridCols,
			Epsilon: serveEpsilon, Seed: seed,
			Nodes: conns, Shards: shards, Tree: tree,
		})
		if err != nil {
			teardown()
			return nil, nil, err
		}
		if err := registerAll(coord.Server()); err != nil {
			teardown()
			return nil, nil, err
		}
		baseURL, stop, err := loopbackServer(coord.Handler())
		if err != nil {
			teardown()
			return nil, nil, err
		}
		stops = append(stops, stop)
		run, done, err := submitRun(baseURL, c)
		if err != nil {
			teardown()
			return nil, nil, err
		}
		stops = append(stops, done)
		return run, teardown, nil
	}
	for _, c := range clientCounts {
		if err := report("cluster-submit", c, clusterSetup); err != nil {
			return err
		}
	}

	if jsonPath != "" {
		if err := mergeBenchJSON(jsonPath, rows, workers, tasks, repeat); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "# merged %d serving rows into %s\n", len(rows), jsonPath)
	}
	if historyPath != "" {
		if err := appendBenchHistory(historyPath, jsonPath); err != nil {
			return err
		}
	}
	return nil
}

// mergeBenchJSON folds fresh rows into the snapshot at path, replacing rows
// with the same benchmark name and appending new ones, so the engine lane
// and the serving lane share one gated file. A snapshot produced under a
// different workload is not merged into (benchdiff would refuse the mix);
// it is replaced.
func mergeBenchJSON(path string, fresh []benchfmt.Record, workers, tasks, repeat int) error {
	out := benchfmt.Report{
		GitSHA:     gitSHA(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workers:    workers,
		Tasks:      tasks,
		Repeat:     repeat,
	}
	if blob, err := os.ReadFile(path); err == nil {
		var old benchfmt.Report
		if json.Unmarshal(blob, &old) == nil && old.Workers == workers && old.Tasks == tasks {
			out.Results = old.Results
		}
	}
	for _, r := range fresh {
		replaced := false
		for i := range out.Results {
			if out.Results[i].Benchmark == r.Benchmark {
				out.Results[i] = r
				replaced = true
				break
			}
		}
		if !replaced {
			out.Results = append(out.Results, r)
		}
	}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
