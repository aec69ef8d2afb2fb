// pombm-server runs the privacy-preserving crowdsourcing platform over
// HTTP: it publishes the predefined grid and HST, accepts obfuscated worker
// registrations, and assigns arriving tasks under the chosen policy. The
// serve mode is one server, exposing the /v2 node API beside the /v1 agent
// API so that it also serves as a cluster backend; with -demo it drives a
// fleet of simulated agents against itself. The coord mode cuts the workers
// across serve-mode backends while exposing the same /v1 agent API as a
// single server — same answers, byte for byte.
//
// Usage (each mode's -h lists its flags):
//
//	pombm-server serve -addr :8080 -grid 32 -eps 0.6 -demo 200
//	pombm-server serve -addr :8081 -policy capacity-greedy -capacity 4
//	pombm-server coord -addr :8080 -backends http://localhost:8081,http://localhost:8082
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"github.com/pombm/pombm/internal/cli"
	"github.com/pombm/pombm/internal/cluster"
	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/rng"
)

func main() {
	cli.Main("pombm-server",
		cli.Mode{Name: "serve", Summary: "serve the platform: the /v1 agent API and the /v2 node API", Flags: serveMode},
		cli.Mode{Name: "coord", Summary: "coordinate serve-mode backends behind one /v1 agent API", Flags: coordMode},
	)
}

// deployment is what both modes deploy: the listen address, the published
// grid and ε, and the assignment policy.
type deployment struct {
	addr, policy        *string
	grid, capacity      *int
	side, eps, lifetime *float64
	seed                *uint64
}

func deploymentFlags(fs *flag.FlagSet) deployment {
	return deployment{
		addr:     fs.String("addr", ":8080", "listen address"),
		grid:     fs.Int("grid", 64, "predefined grid columns/rows"),
		side:     fs.Float64("side", 200, "side of the square service region"),
		eps:      fs.Float64("eps", 0.6, "privacy budget ε"),
		seed:     fs.Uint64("seed", 2020, "random seed"),
		lifetime: fs.Float64("lifetime", 0, "per-worker lifetime ε budget; every fresh report spends ε and exhausted workers are parked (0 = unlimited)"),
		policy:   fs.String("policy", "greedy", "assignment policy: greedy, capacity-greedy, or batch-optimal[:k=<n>]"),
		capacity: fs.Int("capacity", 0, "default per-worker task capacity (0 = 1); above 1 needs a capacity-aware -policy"),
	}
}

// policyOf is -policy's policy; an unknown name is a usage error.
func (d deployment) policyOf() (engine.Policy, error) {
	pol, err := engine.PolicyByName(*d.policy)
	if err != nil {
		return nil, cli.Usagef("%v", err)
	}
	return pol, nil
}

func (d deployment) region() geo.Rect { return geo.NewRect(geo.Pt(0, 0), geo.Pt(*d.side, *d.side)) }

// serve listens on -addr, logs what serves there, hands the bound address to
// started (when given) and serves h until SIGINT or SIGTERM, then closes
// the streams through closers (see platform.Serve).
func (d deployment) serve(what string, srv *platform.Server, h http.Handler, started func(addr string), closers ...func()) error {
	ln, err := net.Listen("tcp", *d.addr)
	if err != nil {
		return err
	}
	log.Printf("%s on %s (grid %dx%d, ε=%g, tree depth %d, policy %s)",
		what, ln.Addr(), *d.grid, *d.grid, *d.eps, srv.Publication().Tree.Depth(), srv.Core().Policy().Name())
	if started != nil {
		go started(ln.Addr().String())
	}
	// A peer that trickles its header or sits on a keep-alive connection
	// cannot pin it. Neither limit reaches a /v1/stream or /v2/node/ops
	// stream: a hijacked connection is out of the server's hands, and each
	// tier reaps an idle one itself. The idle limit stays above the 90 s a
	// client's transport keeps an idle connection, so the client closes
	// first.
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	return platform.Serve(hs, ln, closers...)
}

func serveMode(fs *flag.FlagSet) func([]string) error {
	d := deploymentFlags(fs)
	demo := fs.Int("demo", 0, "run a self-demo with this many workers (0 = serve only)")
	return func([]string) error {
		pol, err := d.policyOf()
		if err != nil {
			return err
		}
		srv, err := platform.NewServer(d.region(), *d.grid, *d.grid, *d.eps, *d.seed,
			platform.WithLifetimeBudget(*d.lifetime), platform.WithPolicy(pol), platform.WithDefaultCapacity(*d.capacity))
		if err != nil {
			return err
		}
		var started func(string)
		if *demo > 0 {
			started = func(addr string) { runDemo(addr, *demo, *d.seed) }
		}
		// Beside the /v1 agent API, expose the /v2 node API: a coordinator
		// can enlist this process as a cluster backend. The node's engine is
		// separate from the standalone /v1 server's and is built by the
		// coordinator's Init.
		node := cluster.NewNode()
		mux := http.NewServeMux()
		mux.Handle("/v1/", platform.Handler(srv))
		mux.Handle("/v2/", cluster.NodeHandler(node))
		return d.serve("serving", srv, mux, started, srv.CloseStreams, node.CloseStreams)
	}
}

func coordMode(fs *flag.FlagSet) func([]string) error {
	d := deploymentFlags(fs)
	var (
		backends = fs.String("backends", "", "comma-separated serve-mode base URLs (required)")
		opTO     = fs.Duration("op-timeout", 0, "per-backend deadline for routed operations (0 = default 30s)")
		prepTO   = fs.Duration("prepare-timeout", 0, "per-backend deadline for rotation prepare; scale with population (0 = default 10m)")
	)
	return func([]string) error {
		if _, err := d.policyOf(); err != nil {
			return err
		}
		var nodes []cluster.NodeConn
		timeouts := cluster.NodeTimeouts{Op: *opTO, Prepare: *prepTO}
		for _, u := range strings.Split(*backends, ",") {
			if u = strings.TrimSpace(u); u != "" {
				nodes = append(nodes, cluster.DialNodeTimeouts(u, timeouts))
			}
		}
		if len(nodes) == 0 {
			return cli.Usagef("-backends requires at least one serve-mode URL")
		}
		coord, err := cluster.New(cluster.Config{
			Region: d.region(), Cols: *d.grid, Rows: *d.grid,
			Epsilon: *d.eps, Seed: *d.seed,
			Nodes:  nodes,
			Policy: *d.policy, DefaultCapacity: *d.capacity,
			Lifetime: *d.lifetime,
		})
		if err != nil {
			return err
		}
		srv := coord.Server()
		return d.serve(fmt.Sprintf("coordinating %d backends", len(nodes)), srv, coord.Handler(), nil, srv.CloseStreams, coord.Close)
	}
}

// runDemo exercises the server with simulated agents over real HTTP.
func runDemo(addr string, workers int, seed uint64) {
	client, err := platform.NewClient("http://" + addr)
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
