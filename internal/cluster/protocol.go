// Package cluster cuts the assignment engine's workers across
// pombm-server backends behind one coordinator, without changing a single
// answer.
//
// The cut (route) keys a code on its first digit: a code's node is its
// first digit mod the node count, so every worker sharing a task's top HST
// branch is on the task's node. The coordinator routes every
// code-addressed operation (Register, Reregister, Release, Withdraw,
// Submit) to the node owning the code; only the greedy rule's root tier (a
// min-of-mins) and the batch-optimal window solve (a scatter-gather
// matching over per-node candidate mines) need more than one node, and
// both recompose the single-process decision exactly. Epoch rotation is a
// distributed two-phase commit: every node stages the new epoch's
// partition, pulled one insert at a time off a streamed prepare body
// (engine.PrepareSwapSeq — neither side ever holds the partition as a
// slice), and only when all prepares succeed does the coordinator commit
// each — any failure aborts cluster-wide and the old epoch keeps serving
// everywhere.
//
// The node side speaks the /v2 wire protocol below: explicit node epochs
// on every operation, idempotency keys on every mutating call (a
// coordinator retry after a lost response replays the recorded answer
// instead of double-applying), and the structured platform.Error taxonomy
// instead of ad-hoc status strings. A node mounts three endpoints, and each
// call has exactly one wire path.
//
// Every bounded call is an op: one of eleven kinds, a sub-op of the
// /v2/node/ops envelope (a sequential caller ships singleton envelopes) —
// the five routed mutations (insert, add-capacity, remove, assign-subtree,
// consume), the root tier's min-id and pop-min, a window's mine, status,
// and the rotation's commit and abort. In Go an op is one call,
// NodeConn.Do: Node.Do is the one place each kind's meaning is written down,
// the HTTP connection ships the OpRequest as it stands, and the node encodes
// Node.Do's OpResult by the kind's result shape below.
//
// What cannot be an op is a document, and there are two: /v2/node/init and
// /v2/node/rotate/prepare stay POSTs. Both carry the published tree, which
// is about 55 B a point — 225 KB on the default 64×64 grid, 3.6 MB at
// 256×256, past the frame cap below — and prepare's body is a population
// that engine.PrepareSwapSeq pulls under its swap lock in one call, which
// a frame-at-a-time answer callback cannot feed. A document's body is a
// run of top-level JSON values that encoding/json reads as it stands: a
// header first (InitRequest, alone; PrepareRequest), and after a prepare's
// header one WireInsert a worker and the closing {"end":N} that counts
// them — so a body cut between two values is refused by its count. The
// header carries the call's idempotency key; both answer a nodeAck.
//
// /v2/node/ops answers two framings of one executor (answerOps). The one a
// coordinator uses is a stream: POST /v2/node/ops with "Connection: Upgrade"
// and "Upgrade: pombm-ops/1" is answered 101 Switching Protocols, and from
// then on the connection carries frames in both directions (internal/wire
// owns the framing and both ends, shared with the agents' /v1/stream) —
//
//	frame     length envelope      length: 4 bytes, big-endian, the envelope's size
//
// — where a request frame's envelope is a request of the grammar at
// OpRequest and the node answers each with one frame holding the response,
// in the order the requests arrived, so a peer may treat the connection as
// a sequence of exchanges (the coordinator keeps one frame in flight on
// each: a stream belongs to a coalescer slot, see batcher). A request frame
// longer than 1 MiB — about sixty full envelopes — is refused by closing
// the stream before any of it is buffered; so is an answer, but for the
// answer to an envelope that carries a mine, the one whose size the
// deployment sets (see maxMineAnswer). The node closes a stream that
// carries nothing for 90 s (the lifetime of an idle keep-alive connection)
// and on any frame that is cut short; the coordinator closes one when an
// exchange fails or outlives the op deadline, a transport failure taking
// the node's idle streams with it, and dials again on the next op. A torn
// stream is safe to resume for the reason a lost response is: the retry
// carries the same idempotency keys. The other framing is the one-shot
// POST: one envelope in a Content-Length body, answered in one, byte for
// byte what the same envelope is answered in a frame — the reference the
// stream is fuzzed against (FuzzOpsStream) and the form a recorder drives.
// No coordinator sends it: there is no fallback from a refused upgrade.
package cluster

import (
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
)

// The /v2 node endpoints a pombm-server mounts beside the /v1 agent API:
// /v1 is what workers and tasks talk to a single-node deployment; /v2/node
// is what a coordinator drives a backend with.
const (
	PathNodeInit    = "/v2/node/init"
	PathNodeOps     = "/v2/node/ops"
	PathNodePrepare = "/v2/node/rotate/prepare"
)

// Paths three of the op kinds had while each call was a POST of its own.
// Nothing is mounted on them; the repository benchmark names them as span
// labels.
const (
	PathNodeMinID  = "/v2/node/min-id"
	PathNodePopMin = "/v2/node/pop-min"
	PathNodeCommit = "/v2/node/rotate/commit"
)

// Op kinds carried by the /v2/node/ops envelope: the only wire form of
// every coordinator → node call but the two documents.
const (
	OpInsert        = "insert"
	OpAddCapacity   = "add-capacity"
	OpRemove        = "remove"
	OpAssignSubtree = "assign-subtree"
	OpConsume       = "consume"
	OpStatus        = "status"
	OpMinID         = "min-id"
	OpPopMin        = "pop-min"
	OpMine          = "mine"
	OpCommit        = "commit"
	OpAbort         = "abort"
)

// OpRequest is one sub-operation of an ops envelope: the union of what the
// eleven kinds need (insert: code, id, capacity, epoch — capacity ≤ 0
// selects the node engine's default; add-capacity and consume: code, id,
// epoch; remove: code, id; assign-subtree: code, epoch; status, min-id,
// pop-min, commit and abort: epoch — a pin for the first three, zero for
// none; mine: the window tasks routed to the node as codes, the pool size
// k, epoch), discriminated by Kind, with its own idempotency key on the
// kinds that mutate. Replay semantics are per-op — the node caches each
// mutation's sub-result under its own key, so a duplicated envelope, or the
// same op regrouped into a different one, replays byte-for-byte; status,
// min-id and mine only read and are answered afresh.
//
// The envelope has no idempotency key of its own (the sub-ops are the
// replay unit, and a retried envelope regroups however the retry timing
// falls) and no Go type: both directions are written and read by the codec
// in codec.go, never by encoding/json, against this grammar, the same in a
// frame and in a POST body —
//
//	request   {"ops":[op,…]}
//	op        {"kind":string,"idem":string,"code":base64,"id":int,"capacity":int,"epoch":int,
//	           "codes":[base64,…],"k":int}
//	response  {"ok":true,"results":[result,…]}              one per op, in order
//	          {"ok":false,"error":error,"results":null}     refused whole, nothing applied
//	result    {"ok":true}                                   insert, add-capacity, consume,
//	                                                        commit, abort
//	          {"ok":true,"units":int,"found":bool}          remove
//	          {"ok":true,"id":int,"level":int,"found":bool} assign-subtree, pop-min; min-id
//	                                                        has no level
//	          {"ok":true,"epoch":int,"len":int,"units":int} status
//	          {"ok":true,"epoch":int,"pool":int,"own":[[candidate,…],…],"pad":[candidate,…]}
//	                                                        mine: a list a code, and the node's
//	                                                        pad list
//	          {"ok":false,"error":error}                    a refused op; remove, assign-subtree,
//	                                                        min-id and pop-min add "found":false
//	candidate [id,base64,level,cap]                         hst.Candidate: four elements, in order
//	error     {"code":string,"message":string,"epoch":int,"retryable":bool}
//
// — with every zero-valued or empty member but kind, ok and found left out,
// which for the five routed kinds is byte-for-byte what encoding/json wrote
// for the structs this replaced. A reader takes whitespace between tokens,
// members in any order and escaped strings. It refuses, as bad_request for
// the whole envelope before any op runs (a malformed answer is a transport
// failure on the other side):
//
//   - a member it does not know, at any level, a known name in another
//     letter case included;
//   - a member that appears twice;
//   - null for any value — "ops":null and a null op included; only the
//     "results":null of a refused envelope is read;
//   - a number that is not an integer literal in range (a fraction, an
//     exponent, past int64), and bytes after the envelope.
//
// The first three are where it is stricter than the encoding/json decoder
// it replaced, which skipped unknown members, matched names
// case-insensitively, kept the last duplicate and read null as the zero
// value; FuzzNodeWire carries a seed for each. A kind the node does not
// know is that op's own bad_request, which is how a node older than its
// coordinator answers: the two are one version.
type OpRequest struct {
	Kind     string   `json:"kind"`
	Idem     string   `json:"idem,omitempty"`
	Code     []byte   `json:"code,omitempty"`
	ID       int      `json:"id,omitempty"`
	Capacity int      `json:"capacity,omitempty"`
	Epoch    int64    `json:"epoch,omitempty"`
	Codes    [][]byte `json:"codes,omitempty"`
	K        int      `json:"k,omitempty"`
}

// OpResult is an op's answer: the union of the result shapes in the grammar
// above, so that one scanner fills it and one value carries any kind's
// answer back to its caller — status's epoch, len and units included. It is
// what NodeConn.Do returns, and the same for the same op on the same state
// whichever connection ran it: empty candidate lists are nil, as the wire
// leaves them, and a refused op answers the zero OpResult beside its error
// (Err is where the scanner leaves a refusal on its way to that error).
type OpResult struct {
	OK    bool
	Err   *platform.Error
	ID    int
	Level int
	Units int
	Found bool
	Epoch int64
	Len   int
	Pool  int
	Own   [][]hst.Candidate
	Pad   []hst.Candidate // a mine's: the node's k smallest ids
}

// InitRequest (re)builds a node's engine: the shared tree, and the shared
// policy spec and default capacity. Every node of a cluster is initialised
// identically — same tree, same capacity clamping — so a worker answers the
// same wherever the cut routes it. It is the whole of an init document.
type InitRequest struct {
	Tree            *hst.Tree `json:"tree"`
	Policy          string    `json:"policy,omitempty"`
	DefaultCapacity int       `json:"default_capacity,omitempty"`
	Idem            string    `json:"idem,omitempty"`
}

// nodeAck is the plain OK/error answer of the two documents.
type nodeAck struct {
	OK  bool            `json:"ok"`
	Err *platform.Error `json:"error,omitempty"`
}

// PrepareRequest heads a prepare document, which stages this node's
// partition of the next epoch: phase one of the distributed rotation. The
// node builds and validates the staged state off to the side while the old
// epoch keeps serving. The partition follows the header value by value.
type PrepareRequest struct {
	Idem  string    `json:"idem,omitempty"`
	Epoch int64     `json:"epoch"`
	Tree  *hst.Tree `json:"tree"`
}

// WireInsert is a value of a prepare document after its header:
// engine.EpochInsert on the wire, or — End alone — the last value, the
// count of the inserts before it.
type WireInsert struct {
	Code []byte `json:"code,omitempty"`
	ID   int    `json:"id,omitempty"`
	Cap  int    `json:"cap,omitempty"`
	End  *int   `json:"end,omitempty"`
}
