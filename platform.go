package pombm

import (
	"net/http"

	"github.com/pombm/pombm/internal/cluster"
	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/rng"
)

// Platform types: the paper's interaction model (Sec. II-A) as a runnable
// client/server system. Obfuscation happens on the agents' side; the
// untrusted server sees only leaf codes.
type (
	// Server is the untrusted crowdsourcing platform.
	Server = platform.Server
	// ServerClient talks to a Server over JSON/HTTP; it is the concrete
	// type behind the API that Dial returns.
	ServerClient = platform.Client
	// Backend abstracts in-process and HTTP access to a Server.
	Backend = platform.Backend
	// API is the full client surface of any pombm deployment — one server
	// or a coordinator-fronted cluster. Dial hands one out; code written
	// against API is deployment-shape agnostic.
	API = platform.API
	// Error is the structured wire error every refusal carries; match it
	// with errors.Is against ErrStaleEpoch and friends instead of string
	// matching on Reason.
	Error = platform.Error
	// ClusterConfig describes a coordinator deployment: the published
	// infrastructure plus the backends the workers are cut across.
	ClusterConfig = cluster.Config
	// Coordinator is the multi-node serving tier: the full serving stack
	// over backends, answering byte-identically to a single server.
	Coordinator = cluster.Coordinator
	// NodeConn is the coordinator's handle to one backend.
	NodeConn = cluster.NodeConn
	// Publication is the infrastructure the server makes public.
	Publication = platform.Publication
	// Obfuscator is the client-side snap-and-obfuscate stack.
	Obfuscator = platform.Obfuscator
	// Worker is a crowd worker agent with a private true location.
	Worker = platform.Worker
	// Task is a spatial task agent with a private true location.
	Task = platform.Task
	// StatsResponse reports server counters.
	StatsResponse = platform.StatsResponse
	// RegisterRequest announces a worker's obfuscated leaf.
	RegisterRequest = platform.RegisterRequest
	// RegisterResponse acknowledges registrations, releases, and updates.
	RegisterResponse = platform.RegisterResponse
	// ReregisterRequest replaces a worker's reported leaf.
	ReregisterRequest = platform.ReregisterRequest
	// ReleaseRequest returns an assigned worker to the pool.
	ReleaseRequest = platform.ReleaseRequest
	// WithdrawRequest takes a worker offline (immediately when available,
	// after its current task when assigned).
	WithdrawRequest = platform.WithdrawRequest
	// TaskRequest submits one task's obfuscated leaf.
	TaskRequest = platform.TaskRequest
	// TaskResponse carries one assignment decision.
	TaskResponse = platform.TaskResponse
	// TaskBatchRequest submits a batch of tasks in arrival order.
	TaskBatchRequest = platform.TaskBatchRequest
	// TaskBatchResponse carries per-task decisions in submission order.
	TaskBatchResponse = platform.TaskBatchResponse
	// PrepareRotateRequest stages the next epoch's tree while the current
	// one keeps serving.
	PrepareRotateRequest = platform.PrepareRotateRequest
	// PrepareRotateResponse returns the staged epoch and tree for
	// client-side re-obfuscation.
	PrepareRotateResponse = platform.PrepareRotateResponse
	// WorkerReport is one worker's fresh report under a staged epoch.
	WorkerReport = platform.WorkerReport
	// RotateRequest commits a staged rotation with the collected reports.
	RotateRequest = platform.RotateRequest
	// RotateResponse summarises a rotation commit (rotated / parked /
	// dropped workers).
	RotateResponse = platform.RotateResponse
)

// AgentKind names one of the six agent calls: the index of its stages in
// Server.AgentSnapshot and the argument of ServerClient.ExchangeSnapshot —
// the in-process account of what the agent hop costs.
type AgentKind = platform.Kind

// The agent calls.
const (
	KindRegister   = platform.KindRegister
	KindReregister = platform.KindReregister
	KindRelease    = platform.KindRelease
	KindWithdraw   = platform.KindWithdraw
	KindTask       = platform.KindTask
	KindTasks      = platform.KindTasks
)

// ServerOption customises server construction (e.g. WithLifetimeBudget).
type ServerOption = platform.ServerOption

// WithLifetimeBudget enforces a per-worker lifetime ε budget under
// sequential composition: every fresh report spends the publication's ε,
// and a worker that cannot afford another is parked instead of silently
// re-noised past its guarantee.
func WithLifetimeBudget(lifetime float64) ServerOption {
	return platform.WithLifetimeBudget(lifetime)
}

// Policy is the pluggable assignment rule the server's engine runs: which
// available worker serves each task. Built-ins: GreedyPolicy (the paper's
// rule, default), CapacityGreedyPolicy (multi-task workers), and
// BatchOptimalPolicy (window-optimal restricted matching).
type Policy = engine.Policy

// GreedyPolicy is the paper-faithful rule: one task per worker slot,
// nearest worker in tree distance, ties to the smallest id.
func GreedyPolicy() Policy { return engine.Greedy() }

// CapacityGreedyPolicy is the capacitated sequential rule: a worker with
// capacity k serves up to k concurrent tasks.
func CapacityGreedyPolicy() Policy { return engine.CapacityGreedy() }

// BatchOptimalPolicy serves each batch window as a restricted min-cost
// matching over per-task top-k trie candidates (k ≤ 0 = default 8).
func BatchOptimalPolicy(k int) Policy { return engine.BatchOptimal(k) }

// PolicyByName resolves a policy spec: "greedy", "capacity-greedy",
// "batch-optimal", or "batch-optimal:k=<n>".
func PolicyByName(spec string) (Policy, error) { return engine.PolicyByName(spec) }

// WithPolicy selects the server's assignment policy (nil keeps greedy).
func WithPolicy(p Policy) ServerOption { return platform.WithPolicy(p) }

// WithDefaultCapacity sets the per-worker capacity a registration without
// an explicit one receives (default 1); above 1 needs a capacity-aware
// policy.
func WithDefaultCapacity(n int) ServerOption { return platform.WithDefaultCapacity(n) }

// NewServer builds a platform server over a region: grid, HST, and the
// privacy budget agents must use.
func NewServer(region Rect, cols, rows int, eps float64, seed uint64, opts ...ServerOption) (*Server, error) {
	return platform.NewServer(region, cols, rows, eps, seed, opts...)
}

// Typed refusal sentinels for errors.Is against a response's Err.
var (
	// ErrStaleEpoch reports a request built under a rotated-away epoch.
	ErrStaleEpoch = platform.ErrStaleEpoch
	// ErrBudgetExhausted reports a worker whose lifetime ε budget cannot
	// afford another fresh report.
	ErrBudgetExhausted = platform.ErrBudgetExhausted
	// ErrParked reports a terminally parked worker.
	ErrParked = platform.ErrParked
	// ErrNoWorkers reports a task refused for lack of available workers.
	ErrNoWorkers = platform.ErrNoWorkers
	// ErrUnavailable reports a backend or transport failure.
	ErrUnavailable = platform.ErrUnavailable
)

// Dial connects to any pombm deployment — a pombm-server or a pombm-coord
// — and returns the deployment-shape-agnostic client surface. Both speak
// the same /v1 agent protocol, so the caller cannot (and need not) tell
// which it reached.
func Dial(baseURL string) (API, error) {
	return platform.NewClient(baseURL)
}

// NewCluster builds the coordinator tier: the full serving stack with its
// workers cut across the configured backends (see DialNode / pombm-coord).
func NewCluster(cfg ClusterConfig) (*Coordinator, error) {
	return cluster.New(cfg)
}

// DialNode returns a backend handle for a pombm-server's /v2 node API.
func DialNode(baseURL string) NodeConn { return cluster.DialNode(baseURL) }

// NodeHandler serves a fresh cluster backend over the /v2 node API — what
// pombm-server mounts beside /v1 so a coordinator can enlist it.
func NodeHandler() http.Handler { return cluster.NodeHandler(cluster.NewNode()) }

// NewObfuscator builds an agent's client-side privacy stack from a
// publication.
func NewObfuscator(pub Publication, seed uint64) (*Obfuscator, error) {
	return platform.NewObfuscator(pub, seed)
}

// PlatformHandler exposes a server over HTTP.
func PlatformHandler(s *Server) http.Handler { return platform.Handler(s) }

// Seed-based randomness helpers for agents that need raw draws.
//
// UniformPoints draws n uniform locations in a region, a convenience for
// examples and demos.
func UniformPoints(region Rect, n int, seed uint64) []Point {
	src := rng.New(seed)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(src.Uniform(region.MinX, region.MaxX), src.Uniform(region.MinY, region.MaxY))
	}
	return pts
}
