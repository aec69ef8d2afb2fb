// Package platform implements the paper's interaction model (Sec. II-A,
// Fig. 1) as a runnable system: an untrusted server that publishes the
// predefined points and HST, worker and task agents that snap and obfuscate
// their locations *client-side* before reporting, online assignment on the
// server, and a private channel through which an assigned worker learns the
// task's true location (as the paper assumes happens off-platform).
//
// Two transports are provided: direct in-process calls and JSON over HTTP
// (net/http), sharing the wire types below.
//
// # The agent plane on the wire
//
// Every call is a JSON request answered by a JSON response, and has a path
// it can be POSTed to: /v1/register, /v1/reregister, /v1/release,
// /v1/withdraw, /v1/task, /v1/tasks, and for operators /v1/rotate/prepare
// and /v1/rotate. A well-formed request is answered 200, refusals included
// (they ride inside the response, typed as Error); a request that is not —
// wrong method or media type, a body that does not decode, one longer than
// 1 MiB — is answered an error status whose body is an Error, and past the
// size cap the connection is closed with the answer rather than drained.
// /v1/publication and /v1/stats are GETs. That is the public, curl-able API
// and the reference for what follows.
//
// The six agent calls — not the rotations — also travel as frames, which is
// how Client makes them. A GET /v1/stream carrying "Connection: Upgrade" and
// "Upgrade: pombm-agent/1" is answered 101 Switching Protocols, and the
// connection then carries frames in both directions, one answer frame per
// request frame, in order, one in flight:
//
//	frame   = length payload          length: 4 bytes, big-endian, of payload
//	request = kind body               kind: 1 byte; body: the JSON a POST carries
//	answer  = status body             status: 2 bytes, big-endian; body: the JSON a POST answers
//
// kind is 1 register, 2 reregister, 3 release, 4 withdraw, 5 task, 6 tasks
// (the Kind constants). status and body are byte for byte the status and body
// the same JSON POSTed to the call's path is answered with — one function,
// answer, makes both, and FuzzAgentStream holds the two framings to it — so
// an undecodable body is answered 400 in a frame too, as is a payload with
// no kind byte or a kind that is not one of the six; the stream stays usable.
//
// Caps and what closes a stream. A request frame's payload is at most 1 MiB
// (what a POSTed body may be); the server closes a stream whose header
// announces more, before reading or allocating any of it, and one that ends
// inside a frame. A Client reads answers of up to 64 MiB, the bound on any
// response. The server closes a stream that carries nothing for 90 s — an
// idle keep-alive connection's lifetime, and what ends the streams of an
// agent that vanished — and all of them at Server.CloseStreams, which a
// stopping process calls after http.Server.Shutdown (Serve does both):
// Shutdown never sees an upgraded connection. A Client closes a stream
// instead of using it once it has been parked for 60 s, strictly inside the
// server's 90, and bounds a call at two minutes, after which the stream is
// closed under it.
//
// Nothing is sent twice. A call whose stream fails — before, while or after
// the server applied it; the Client cannot tell which — is answered the typed
// retryable unavailable, and the Client closes that stream and every parked
// one. The routed /v2 node operations replay safely because each carries an
// idempotency key; /v1 calls carry none, so a resent register could be
// refused as a duplicate of itself and a resent task assigned twice. Whether
// to ask again is the caller's decision, exactly as after a POST whose
// connection died.
//
// When a Client stays on POST. The upgrade is a hop-by-hop request: a
// forward proxy (NewTransport honours HTTP_PROXY) strips it, an http.Client
// with a Timeout wraps the 101's body so it cannot be written to, an older
// server answers 404. A Client whose upgrade is answered with anything but a
// 101 it can write to makes every later call a POST for as long as it lives;
// one whose upgrade is not answered at all reports unavailable and asks
// again on the next call. There is no setting for any of this.
package platform

import (
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
)

// Publication is what the server makes public: the tree (with its
// predefined points), the grid geometry for O(1) snapping, and the privacy
// budget workers and tasks must obfuscate with.
type Publication struct {
	Tree    *hst.Tree `json:"tree"`
	Region  geo.Rect  `json:"region"`
	Cols    int       `json:"cols"`
	Rows    int       `json:"rows"`
	Epsilon float64   `json:"epsilon"`
	// Epoch identifies the serving epoch the tree belongs to. Agents tag
	// their reports and tasks with it; after a rotation, codes obfuscated
	// under an older publication are refused as stale.
	Epoch int64 `json:"epoch,omitempty"`
}

// RegisterRequest announces a worker's availability with its obfuscated
// leaf. The true location never appears on the wire.
type RegisterRequest struct {
	WorkerID string `json:"worker_id"`
	Code     []byte `json:"code"`
	// Epoch tags the publication the code was obfuscated under; 0 accepts
	// whatever epoch is being served (pre-rotation clients).
	Epoch int64 `json:"epoch,omitempty"`
	// Capacity is how many tasks the worker can serve concurrently before
	// leaving the pool. 0 selects the server default; every value is
	// clamped to 1 unless the server runs a capacity-aware policy.
	Capacity int `json:"capacity,omitempty"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	OK bool `json:"ok"`
	// Reason is the human-readable refusal.
	//
	// Deprecated: match on Err with errors.Is instead of string-matching
	// Reason; Reason remains populated for older clients.
	Reason string `json:"reason,omitempty"`
	// Err is the structured refusal (nil on success).
	Err *Error `json:"error,omitempty"`
	// Parked reports that the worker's lifetime ε budget is exhausted: the
	// platform refuses further fresh reports from it permanently instead
	// of degrading its guarantee.
	Parked bool `json:"parked,omitempty"`
	// Epoch is the serving epoch that accepted the report.
	Epoch int64 `json:"epoch,omitempty"`
}

// TaskRequest submits a dynamically appearing task with its obfuscated leaf.
type TaskRequest struct {
	TaskID string `json:"task_id"`
	Code   []byte `json:"code"`
	// Epoch tags the publication the code was obfuscated under; a task
	// from a rotated-away epoch is refused rather than matched against
	// workers noised under a different tree. 0 accepts the serving epoch.
	Epoch int64 `json:"epoch,omitempty"`
}

// TaskResponse carries the assignment decision.
type TaskResponse struct {
	Assigned bool   `json:"assigned"`
	WorkerID string `json:"worker_id,omitempty"`
	// Reason is the human-readable refusal.
	//
	// Deprecated: match on Err with errors.Is instead of string-matching
	// Reason; Reason remains populated for older clients.
	Reason string `json:"reason,omitempty"`
	// Err is the structured refusal (nil when assigned).
	Err *Error `json:"error,omitempty"`
	// Epoch is the epoch the assigned worker's report was obfuscated
	// under; it always equals the serving epoch of the assignment (the
	// epoch-consistency invariant the rotation tests assert).
	Epoch int64 `json:"epoch,omitempty"`
}

// TaskBatchRequest submits a batch of tasks to be assigned in order
// through the engine's amortised batch path.
type TaskBatchRequest struct {
	Tasks []TaskRequest `json:"tasks"`
}

// TaskBatchResponse carries one assignment decision per submitted task, in
// submission order.
type TaskBatchResponse struct {
	Results []TaskResponse `json:"results"`
}

// ReleaseRequest returns an assigned worker to the available pool. Code is
// optional: empty re-reports the worker's previous leaf (no extra privacy
// spend); non-empty reports a freshly obfuscated location.
type ReleaseRequest struct {
	WorkerID string `json:"worker_id"`
	Code     []byte `json:"code,omitempty"`
	// Epoch tags the publication a non-empty Code was obfuscated under.
	Epoch int64 `json:"epoch,omitempty"`
}

// WithdrawRequest takes a worker offline: immediately when available, after
// its current task when assigned.
type WithdrawRequest struct {
	WorkerID string `json:"worker_id"`
}

// StatsResponse summarises server state for monitoring.
type StatsResponse struct {
	// RegisteredWorkers counts the distinct worker ids ever registered: an
	// id counts when it registers while unknown to the server. With a
	// lifetime budget the server remembers every id it has charged, so the
	// count is exact; without one, an id that withdrew and was compacted
	// away by a rotation is forgotten and counts again when it returns.
	RegisteredWorkers int `json:"registered_workers"`
	AvailableWorkers  int `json:"available_workers"`
	AssignedTasks     int `json:"assigned_tasks"`
	RejectedTasks     int `json:"rejected_tasks"`
	ReleasedWorkers   int `json:"released_workers"`
	WithdrawnWorkers  int `json:"withdrawn_workers"`
	// MatchLevelCounts histograms assignments by the LCA level of the
	// match (index 0 = co-located leaf, index D = cross-root match): the
	// server-observable proxy for match quality, maintained identically on
	// the one-by-one and batch submission paths.
	MatchLevelCounts []int `json:"match_level_counts,omitempty"`
	// MeanMatchLevel is the average LCA level over all assignments (0 when
	// none have been made).
	MeanMatchLevel float64 `json:"mean_match_level"`
	// Epoch is the serving epoch id; Rotations counts committed epoch
	// rotations, RotatedWorkers the successful re-obfuscations across all
	// of them, ParkedWorkers the workers retired with exhausted lifetime
	// budgets, and DroppedWorkers the available workers dropped at a
	// rotation for lack of a fresh report.
	Epoch          int64 `json:"epoch"`
	Rotations      int   `json:"rotations"`
	RotatedWorkers int   `json:"rotated_workers"`
	ParkedWorkers  int   `json:"parked_workers"`
	DroppedWorkers int   `json:"dropped_workers"`
	// Budget accounting (zero values when no lifetime budget is set):
	// BudgetSpentTotal is the accountant's grand total, which equals the
	// sum of every accepted fresh report's ε exactly.
	BudgetLimit      float64 `json:"budget_limit,omitempty"`
	BudgetSpentTotal float64 `json:"budget_spent_total,omitempty"`
	BudgetedAgents   int     `json:"budgeted_agents,omitempty"`
	// Policy names the server's assignment policy; PolicyCounters counts
	// the assignments it served, keyed by policy name. A server runs one
	// policy for its lifetime, so today the map holds a single entry
	// mirroring AssignedTasks — the keyed shape exists so dashboards keep
	// working if servers ever serve multiple policies side by side.
	// DefaultCapacity is
	// the per-worker capacity a registration without one receives,
	// CapacityUnits the total remaining units across available workers
	// (equal to AvailableWorkers for capacity-1 pools), and BatchWindows
	// the windows served by a window-solving policy (batch-optimal).
	Policy          string         `json:"policy,omitempty"`
	PolicyCounters  map[string]int `json:"policy_counters,omitempty"`
	DefaultCapacity int            `json:"default_capacity,omitempty"`
	CapacityUnits   int            `json:"capacity_units,omitempty"`
	BatchWindows    int64          `json:"batch_windows,omitempty"`
	// The registry's footprint. SlotTableLen is the number of slots in the
	// serving epoch's table: live workers plus the stints closed since the
	// last rotation, which compacts them away. RegistryBytes is the table's
	// own allocation (record pages, code slabs and id index; the id bytes
	// the records point at are not counted), and DepartedLedgerIDs the ids
	// whose lifetime spend is remembered although they are offline.
	SlotTableLen      int `json:"slot_table_len"`
	RegistryBytes     int `json:"registry_bytes"`
	DepartedLedgerIDs int `json:"departed_ledger_ids"`
	// Agent is the account of the agent hop — open streams, calls answered
	// as frames and as POSTs, and the latency of each stage — that the
	// /v1/stats endpoint adds; Server.Stats leaves it nil (AgentSnapshot is
	// the in-process read).
	Agent *AgentStats `json:"agent,omitempty"`
}

// PrepareRotateRequest stages the next epoch: a fresh HST built in the
// background while the current epoch keeps serving. Seed 0 derives the
// construction randomness deterministically from the server seed and the
// next epoch id; Refit orders the carving permutation by the report
// density observed during the serving epoch.
type PrepareRotateRequest struct {
	Seed  uint64 `json:"seed,omitempty"`
	Refit bool   `json:"refit,omitempty"`
}

// PrepareRotateResponse returns the staged epoch and the tree workers must
// re-obfuscate under.
type PrepareRotateResponse struct {
	OK     bool      `json:"ok"`
	Reason string    `json:"reason,omitempty"`
	Err    *Error    `json:"error,omitempty"`
	Epoch  int64     `json:"epoch,omitempty"`
	Tree   *hst.Tree `json:"tree,omitempty"`
}

// WorkerReport is one worker's fresh obfuscated report under a staged
// epoch's tree.
type WorkerReport struct {
	WorkerID string `json:"worker_id"`
	Code     []byte `json:"code"`
}

// RotateRequest commits a staged rotation with the fresh reports collected
// from workers. Epoch 0 commits whatever is staged.
type RotateRequest struct {
	Epoch   int64          `json:"epoch,omitempty"`
	Reports []WorkerReport `json:"reports"`
}

// RotateResponse summarises a rotation commit: how many workers rotated
// into the new epoch, which were parked (lifetime budget exhausted) or
// dropped (available but no usable fresh report), and how many reports
// were skipped (unknown, busy, duplicate, or malformed).
type RotateResponse struct {
	OK      bool     `json:"ok"`
	Reason  string   `json:"reason,omitempty"`
	Err     *Error   `json:"error,omitempty"`
	Epoch   int64    `json:"epoch,omitempty"`
	Rotated int      `json:"rotated"`
	Parked  []string `json:"parked,omitempty"`
	Dropped []string `json:"dropped,omitempty"`
	Skipped int      `json:"skipped,omitempty"`
}
