// pombm-coord runs the multi-node serving tier: a coordinator that shards
// the assignment engine across pombm-server backends (their /v2 node API)
// while exposing the same /v1 agent API as a single server — same answers,
// byte for byte.
//
// Usage:
//
//	pombm-server -addr :8081 &    # backends first
//	pombm-server -addr :8082 &
//	pombm-server -addr :8083 &
//	pombm-coord -addr :8080 -backends http://localhost:8081,http://localhost:8082,http://localhost:8083
//	pombm-coord -backends ... -policy batch-optimal:k=16
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/pombm/pombm/internal/cluster"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/platform"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		backends = flag.String("backends", "", "comma-separated pombm-server base URLs (required)")
		grid     = flag.Int("grid", 64, "predefined grid columns/rows")
		side     = flag.Float64("side", 200, "side of the square service region")
		eps      = flag.Float64("eps", 0.6, "privacy budget ε")
		seed     = flag.Uint64("seed", 2020, "coordinator random seed")
		shards   = flag.Int("shards", 0, "per-node engine shard count (0 = engine default)")
		lifetime = flag.Float64("lifetime", 0, "per-worker lifetime ε budget (0 = unlimited)")
		policy   = flag.String("policy", "greedy", "assignment policy: greedy, capacity-greedy, or batch-optimal[:k=<n>]")
		capacity = flag.Int("capacity", 0, "default per-worker task capacity (0 = 1); above 1 needs a capacity-aware -policy")
		opTO     = flag.Duration("op-timeout", 0, "per-backend deadline for routed operations (0 = default 30s)")
		prepTO   = flag.Duration("prepare-timeout", 0, "per-backend deadline for rotation prepare; scale with population (0 = default 10m)")
	)
	flag.Parse()

	urls := strings.Split(*backends, ",")
	var nodes []cluster.NodeConn
	timeouts := cluster.NodeTimeouts{Op: *opTO, Prepare: *prepTO}
	for _, u := range urls {
		if u = strings.TrimSpace(u); u != "" {
			nodes = append(nodes, cluster.DialNodeTimeouts(u, timeouts))
		}
	}
	if len(nodes) == 0 {
		fmt.Fprintln(os.Stderr, "pombm-coord: -backends requires at least one pombm-server URL")
		os.Exit(1)
	}

	region := geo.NewRect(geo.Pt(0, 0), geo.Pt(*side, *side))
	coord, err := cluster.New(cluster.Config{
		Region: region, Cols: *grid, Rows: *grid,
		Epsilon: *eps, Seed: *seed,
		Nodes: nodes, Shards: *shards,
		Policy: *policy, DefaultCapacity: *capacity,
		Lifetime: *lifetime,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pombm-coord:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pombm-coord:", err)
		os.Exit(1)
	}
	srv := coord.Server()
	log.Printf("coordinating %d backends on %s (grid %dx%d, ε=%g, tree depth %d, %d engine shards, policy %s)",
		len(nodes), ln.Addr(), *grid, *grid, *eps,
		srv.Publication().Tree.Depth(), srv.Core().Shards(), srv.Core().Policy().Name())
	// A peer that trickles its header or sits on a keep-alive connection
	// cannot pin it; the idle limit stays above the 90 s an agent's transport
	// keeps an idle connection, so the client closes first.
	hs := &http.Server{Handler: coord.Handler(), ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	if err := platform.Serve(hs, ln, srv.CloseStreams, coord.Close); err != nil {
		log.Fatal(err)
	}
}
