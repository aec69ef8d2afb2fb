// pombm-server runs the privacy-preserving crowdsourcing platform over
// HTTP: it publishes the predefined grid and HST, accepts obfuscated worker
// registrations, and assigns arriving tasks with HST-Greedy. With -demo it
// also drives a fleet of simulated workers and tasks against itself.
//
// Beside the /v1 agent API it exposes the /v2 node API, so the same binary
// serves standalone or as a backend a pombm-coord shards the engine across.
//
// Usage:
//
//	pombm-server -addr :8080 -grid 32 -eps 0.6
//	pombm-server -addr :8080 -demo 200
//	pombm-server -policy capacity-greedy -capacity 4
//	pombm-server -policy batch-optimal:k=16
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/pombm/pombm/internal/cluster"
	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/rng"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		grid     = flag.Int("grid", 64, "predefined grid columns/rows")
		side     = flag.Float64("side", 200, "side of the square service region")
		eps      = flag.Float64("eps", 0.6, "privacy budget ε")
		seed     = flag.Uint64("seed", 2020, "server random seed")
		shards   = flag.Int("shards", 0, "assignment engine shard count (0 = engine default)")
		lifetime = flag.Float64("lifetime", 0, "per-worker lifetime ε budget; every fresh report spends ε and exhausted workers are parked (0 = unlimited)")
		policy   = flag.String("policy", "greedy", "assignment policy: greedy, capacity-greedy, or batch-optimal[:k=<n>]")
		capacity = flag.Int("capacity", 0, "default per-worker task capacity (0 = 1); above 1 needs a capacity-aware -policy")
		demo     = flag.Int("demo", 0, "run a self-demo with this many workers (0 = serve only)")
	)
	flag.Parse()

	pol, err := engine.PolicyByName(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pombm-server:", err)
		os.Exit(1)
	}
	opts := []platform.ServerOption{
		platform.WithShards(*shards), platform.WithLifetimeBudget(*lifetime), platform.WithPolicy(pol),
	}
	if *capacity != 0 {
		opts = append(opts, platform.WithDefaultCapacity(*capacity))
	}
	region := geo.NewRect(geo.Pt(0, 0), geo.Pt(*side, *side))
	srv, err := platform.NewServer(region, *grid, *grid, *eps, *seed, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pombm-server:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pombm-server:", err)
		os.Exit(1)
	}
	log.Printf("serving on %s (grid %dx%d, ε=%g, tree depth %d, %d engine shards, policy %s)",
		ln.Addr(), *grid, *grid, *eps, srv.Publication().Tree.Depth(), srv.Core().Shards(), pol.Name())

	if *demo > 0 {
		go runDemo(ln.Addr().String(), *demo, *seed)
	}
	// Beside the /v1 agent API, expose the /v2 node API: a pombm-coord can
	// enlist this process as a cluster backend. The node's engine is
	// separate from the standalone /v1 server's and is built by the
	// coordinator's Init.
	node := cluster.NewNode()
	mux := http.NewServeMux()
	mux.Handle("/v1/", platform.Handler(srv))
	mux.Handle("/v2/", cluster.NodeHandler(node))
	// A peer that trickles its header or sits on a keep-alive connection
	// cannot pin it. Neither limit reaches a /v1/stream or /v2/node/ops
	// stream: a hijacked connection is out of the server's hands, and each
	// tier reaps an idle one itself. The idle limit stays above the 90 s a
	// client's transport keeps an idle connection, so the client closes
	// first.
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	if err := platform.Serve(hs, ln, srv.CloseStreams, node.CloseStreams); err != nil {
		log.Fatal(err)
	}
}

// runDemo exercises the server with simulated agents over real HTTP.
func runDemo(addr string, workers int, seed uint64) {
	time.Sleep(200 * time.Millisecond) // let the listener start serving
	base := "http://" + addr
	client, err := platform.NewClient(base)
	if err != nil {
		log.Printf("demo: %v", err)
		return
	}
	defer client.Close()
	obf, err := platform.NewObfuscator(client.Publication(), seed+1)
	if err != nil {
		log.Printf("demo: %v", err)
		return
	}
	src := rng.New(seed + 2)
	region := client.Publication().Region
	// The whole worker wave obfuscates through one batch: the sampled codes
	// share a single slab instead of allocating one buffer per worker.
	locs := make([]geo.Point, workers)
	for i := range locs {
		locs[i] = geo.Pt(src.Uniform(region.MinX, region.MaxX), src.Uniform(region.MinY, region.MaxY))
	}
	for i, code := range obf.ObfuscateBatch(locs) {
		resp := client.Register(platform.RegisterRequest{
			WorkerID: fmt.Sprintf("demo-worker-%d", i),
			Code:     []byte(code),
		})
		if !resp.OK {
			log.Printf("demo: registration failed: %s", resp.Reason)
			return
		}
	}
	log.Printf("demo: registered %d workers", workers)
	assigned := 0
	for i := 0; i < workers/2; i++ {
		t := platform.Task{
			ID:  fmt.Sprintf("demo-task-%d", i),
			Loc: geo.Pt(src.Uniform(region.MinX, region.MaxX), src.Uniform(region.MinY, region.MaxY)),
		}
		if _, ok, err := t.Submit(client, obf); err != nil {
			log.Printf("demo: %v", err)
			return
		} else if ok {
			assigned++
		}
	}
	stats, err := client.Stats()
	if err != nil {
		log.Printf("demo: %v", err)
		return
	}
	log.Printf("demo: %d/%d tasks assigned; server stats %+v", assigned, workers/2, stats)
}
