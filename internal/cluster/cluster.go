package cluster

import (
	"errors"
	"fmt"
	"net/http"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/rng"
)

// Config describes a coordinator deployment: the published infrastructure
// (identical knobs to platform.NewServer) plus the backend set the engine
// is sharded across.
type Config struct {
	// Region, Cols, Rows, Epsilon, Seed are the published infrastructure,
	// exactly as a single pombm-server would build it: same grid, same
	// derived HST, same privacy budget.
	Region  geo.Rect
	Cols    int
	Rows    int
	Epsilon float64
	Seed    uint64

	// Nodes are the backends the engine shards across. Required.
	Nodes []NodeConn

	// Shards is the per-node shard-count request (0 = engine default).
	// Every node is initialised with the same value — shard indices are
	// global across the cluster.
	Shards int

	// Policy is the assignment policy spec by name (see
	// engine.PolicyNames); "" is greedy.
	Policy string

	// DefaultCapacity is the per-worker capacity a registration without an
	// explicit capacity gets (0 = 1).
	DefaultCapacity int

	// Lifetime, when positive, enforces the per-worker lifetime ε budget
	// (see platform.WithLifetimeBudget).
	Lifetime float64

	// Tree, when non-nil, is published instead of deriving one from the
	// grid and seed (the simulator injects its own).
	Tree *hst.Tree
}

// Coordinator is the cluster's serving tier: one platform.Server (the
// full single-node serving stack — slot tables, privacy-budget
// accounting, rotation planning) running over a fanned-out core instead
// of a local engine. Agents talk to it exactly as they would a single
// pombm-server; every answer is bit-identical to the single-node
// deployment on the same operation sequence.
type Coordinator struct {
	srv  *platform.Server
	core *fanCore
}

// New builds the coordinator: derives (or adopts) the published tree,
// initialises every backend with the shared engine configuration, and
// mounts the serving stack over the fanned-out core.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: no backend nodes configured")
	}
	tree := cfg.Tree
	if tree == nil {
		grid, err := geo.NewGrid(cfg.Region, cfg.Cols, cfg.Rows)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		// Same derivation as platform.NewServer: identical region, grid and
		// seed publish an identical tree whatever the deployment shape.
		tree, err = hst.Build(grid.Points(), rng.New(cfg.Seed).Derive("server-hst"))
		if err != nil {
			return nil, err
		}
	}
	pol, err := engine.PolicyByName(cfg.Policy)
	if err != nil {
		return nil, err
	}
	core, err := newFanCore(cfg.Nodes, tree, cfg.Shards, pol, cfg.Policy, cfg.DefaultCapacity)
	if err != nil {
		return nil, err
	}
	opts := []platform.ServerOption{platform.WithCore(core)}
	if cfg.Lifetime > 0 {
		opts = append(opts, platform.WithLifetimeBudget(cfg.Lifetime))
	}
	srv, err := platform.NewServer(cfg.Region, cfg.Cols, cfg.Rows, cfg.Epsilon, cfg.Seed, opts...)
	if err != nil {
		return nil, err
	}
	return &Coordinator{srv: srv, core: core}, nil
}

// Server returns the serving stack; everything a single-node deployment
// does with a *platform.Server works unchanged against it.
func (c *Coordinator) Server() *platform.Server { return c.srv }

// Handler returns the coordinator's agent-facing HTTP API — the same /v1
// surface a pombm-server exposes.
func (c *Coordinator) Handler() http.Handler { return platform.Handler(c.srv) }

// Close closes the connection to every backend (NodeConn.Close), so that a
// coordinator that stops leaves its nodes no stream to hold until they reap
// it. The coordinator serves nothing that reaches a node afterwards.
func (c *Coordinator) Close() {
	for _, n := range c.core.nodes {
		n.Close()
	}
}

// Client is an HTTP client against a coordinator. The coordinator speaks
// the same agent protocol as a single pombm-server, so Client is the
// platform client under a deployment-shape-honest name; it satisfies
// platform.API alongside platform.Client.
type Client struct {
	*platform.Client
}

// Dial fetches the coordinator's publication and returns a client.
func Dial(baseURL string) (*Client, error) {
	pc, err := platform.NewClient(baseURL)
	if err != nil {
		return nil, err
	}
	return &Client{Client: pc}, nil
}

var _ platform.API = (*Client)(nil)
