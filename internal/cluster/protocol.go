// Package cluster shards the assignment engine across pombm-server
// backends behind one coordinator, without changing a single answer.
//
// The decomposition leans on the engine's own sharding invariant: every
// worker sharing a task's top HST branch lives in one shard, and a shard —
// together, under sub-sharding, with its whole sibling group — can be
// pinned to one node. The coordinator routes every code-addressed
// operation (Register, Reregister, Release, Withdraw, Submit) to the node
// owning the code's shard group; only the greedy rule's root tier (a
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
// The node side speaks the /v2 wire protocol below: nine versioned
// endpoints, explicit node epochs on every operation, idempotency keys on
// every mutating call (a coordinator retry after a lost response replays
// the recorded answer instead of double-applying), and the structured
// platform.Error taxonomy instead of ad-hoc status strings. Each operation
// has exactly one wire path: the five single-worker mutations travel only
// as sub-ops of the /v2/node/ops envelope (a sequential caller ships
// singleton envelopes), everything else as one POST to its own endpoint.
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
// each: a stream belongs to a coalescer slot, see batcher). A frame longer
// than 1 MiB — about sixty full envelopes — is refused by closing the
// stream before any of it is buffered. The node closes a stream that
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

// /v2 node endpoint paths. They live beside the /v1 agent API on a
// pombm-server: /v1 is what workers and tasks talk to a single-node
// deployment; /v2/node is what a coordinator drives a backend with.
const (
	PathNodeInit    = "/v2/node/init"
	PathNodeStatus  = "/v2/node/status"
	PathNodeOps     = "/v2/node/ops"
	PathNodeMinID   = "/v2/node/min-id"
	PathNodePopMin  = "/v2/node/pop-min"
	PathNodeMine    = "/v2/node/mine"
	PathNodePrepare = "/v2/node/rotate/prepare"
	PathNodeCommit  = "/v2/node/rotate/commit"
	PathNodeAbort   = "/v2/node/rotate/abort"
)

// Op kinds carried by the /v2/node/ops envelope — the only wire form of
// the single-worker routed operations; anything whose answer spans nodes
// (min-id, mine, the rotation verbs) has its own endpoint.
const (
	OpInsert        = "insert"
	OpAddCapacity   = "add-capacity"
	OpRemove        = "remove"
	OpAssignSubtree = "assign-subtree"
	OpConsume       = "consume"
)

// OpRequest is one sub-operation of an ops envelope: the union of what the
// five kinds need (insert: code, id, capacity, epoch — capacity ≤ 0
// selects the node engine's default; add-capacity and consume: code, id,
// epoch; remove: code, id; assign-subtree: code, epoch), discriminated by
// Kind, with its own idempotency key. Replay semantics are per-op — the
// node caches each sub-result under its own key, so a duplicated envelope,
// or the same op regrouped into a different one, replays byte-for-byte.
//
// The envelope has no idempotency key of its own (the sub-ops are the
// replay unit, and a retried envelope regroups however the retry timing
// falls) and no Go type: both directions are written and read by the codec
// in codec.go, never by encoding/json, against this grammar, the same in a
// frame and in a POST body —
//
//	request   {"ops":[op,…]}
//	op        {"kind":string,"idem":string,"code":base64,"id":int,"capacity":int,"epoch":int}
//	response  {"ok":true,"results":[result,…]}              one per op, in order
//	          {"ok":false,"error":error,"results":null}     refused whole, nothing applied
//	result    {"ok":true}                                   insert, add-capacity, consume
//	          {"ok":true,"units":int,"found":bool}          remove
//	          {"ok":true,"id":int,"level":int,"found":bool} assign-subtree
//	          {"ok":false,"error":error}                    a refused op; remove and
//	                                                        assign-subtree add "found":false
//	error     {"code":string,"message":string,"epoch":int,"retryable":bool}
//
// — with every zero-valued member but kind, ok and found left out, which
// is byte-for-byte what encoding/json wrote for the structs this replaced.
// A reader takes whitespace between tokens, members in any order and
// escaped strings. It refuses, as bad_request for the whole envelope before
// any op runs (a malformed answer is a transport failure on the other
// side):
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
// value; FuzzNodeWire carries a seed for each.
type OpRequest struct {
	Kind     string `json:"kind"`
	Idem     string `json:"idem,omitempty"`
	Code     []byte `json:"code,omitempty"`
	ID       int    `json:"id,omitempty"`
	Capacity int    `json:"capacity,omitempty"`
	Epoch    int64  `json:"epoch,omitempty"`
}

// opResult is a sub-result as the coordinator reads it: the union of the
// three result shapes in the grammar above, so that one scanner fills it
// and one value carries any routed op's answer back to its caller.
type opResult struct {
	OK    bool            `json:"ok"`
	Err   *platform.Error `json:"error,omitempty"`
	ID    int             `json:"id,omitempty"`
	Level int             `json:"level,omitempty"`
	Units int             `json:"units,omitempty"`
	Found bool            `json:"found"`
}

// InitRequest (re)builds a node's engine: the shared tree, the shared
// shard count, and the shared policy spec and default capacity. Every node
// of a cluster is initialised identically — same layout, same capacity
// clamping — which is what makes shard indices global and routing exact.
type InitRequest struct {
	Tree            *hst.Tree `json:"tree"`
	Shards          int       `json:"shards,omitempty"`
	Policy          string    `json:"policy,omitempty"`
	DefaultCapacity int       `json:"default_capacity,omitempty"`
	Idem            string    `json:"idem,omitempty"`
}

// nodeAck is the plain OK/error answer of init, prepare, commit and abort.
type nodeAck struct {
	OK  bool            `json:"ok"`
	Err *platform.Error `json:"error,omitempty"`
}

// StatusRequest polls a node; a non-zero Epoch pins the read.
type StatusRequest struct {
	Epoch int64 `json:"epoch,omitempty"`
}

// StatusResponse reports a node's serving epoch and pool.
type StatusResponse struct {
	OK    bool            `json:"ok"`
	Err   *platform.Error `json:"error,omitempty"`
	Epoch int64           `json:"epoch"`
	Len   int             `json:"len"`
	Units int             `json:"units"`
}

// AssignResponse carries pop-min's outcome: Found false means the node's
// pool is empty.
type AssignResponse struct {
	OK    bool            `json:"ok"`
	Err   *platform.Error `json:"error,omitempty"`
	ID    int             `json:"id,omitempty"`
	Level int             `json:"level,omitempty"`
	Found bool            `json:"found"`
}

// MinIDRequest asks for the node's smallest available worker id.
type MinIDRequest struct {
	Epoch int64 `json:"epoch,omitempty"`
}

// MinIDResponse answers the root-tier min-of-mins poll.
type MinIDResponse struct {
	OK    bool            `json:"ok"`
	Err   *platform.Error `json:"error,omitempty"`
	ID    int             `json:"id,omitempty"`
	Found bool            `json:"found"`
}

// PopMinRequest pops the node's smallest available worker id (the root
// tier commit, after MinID elected this node).
type PopMinRequest struct {
	Epoch int64  `json:"epoch,omitempty"`
	Idem  string `json:"idem,omitempty"`
}

// WireCandidate is hst.Candidate on the wire (codes as raw digit bytes).
type WireCandidate struct {
	ID    int    `json:"id"`
	Code  []byte `json:"code"`
	Level int    `json:"level"`
	Cap   int    `json:"cap"`
}

// MineRequest scatters a batch window's mining to one node: the window
// tasks routed here plus the per-shard pad lists every node contributes.
type MineRequest struct {
	Codes [][]byte `json:"codes"`
	K     int      `json:"k"`
	Epoch int64    `json:"epoch,omitempty"`
}

// MineResponse is the node's engine.WindowMine on the wire.
type MineResponse struct {
	OK    bool              `json:"ok"`
	Err   *platform.Error   `json:"error,omitempty"`
	Epoch int64             `json:"epoch"`
	Pool  int               `json:"pool"`
	Own   [][]WireCandidate `json:"own,omitempty"`
	Pads  [][]WireCandidate `json:"pads,omitempty"`
}

// WireInsert is engine.EpochInsert on the wire.
type WireInsert struct {
	Code []byte `json:"code"`
	ID   int    `json:"id"`
	Cap  int    `json:"cap,omitempty"`
}

// PrepareRequest stages this node's partition of the next epoch: phase one
// of the distributed rotation. The node builds and validates the staged
// state off to the side while the old epoch keeps serving.
//
// Field order is part of the wire contract: the node decodes prepare
// bodies incrementally, so Idem must come first (replay check before any
// work) and Inserts must stay last (the scalar fields and the tree land
// before the population streams).
type PrepareRequest struct {
	Idem    string       `json:"idem,omitempty"`
	Epoch   int64        `json:"epoch"`
	Shards  int          `json:"shards,omitempty"`
	Tree    *hst.Tree    `json:"tree"`
	Inserts []WireInsert `json:"inserts"`
}

// CommitRequest publishes the staged epoch: phase two. A commit for an
// epoch the node already serves acks idempotently (the earlier commit's
// response was lost, not its effect).
type CommitRequest struct {
	Epoch int64  `json:"epoch"`
	Idem  string `json:"idem,omitempty"`
}

// AbortRequest drops a staged epoch after a sibling node's prepare failed.
type AbortRequest struct {
	Epoch int64  `json:"epoch"`
	Idem  string `json:"idem,omitempty"`
}

func toWireCands(in [][]hst.Candidate) [][]WireCandidate {
	if in == nil {
		return nil
	}
	out := make([][]WireCandidate, len(in))
	for i, cs := range in {
		if cs == nil {
			continue
		}
		ws := make([]WireCandidate, len(cs))
		for j, c := range cs {
			ws[j] = WireCandidate{ID: c.ID, Code: []byte(c.Code), Level: c.Level, Cap: c.Cap}
		}
		out[i] = ws
	}
	return out
}

func fromWireCands(in [][]WireCandidate) [][]hst.Candidate {
	if in == nil {
		return nil
	}
	out := make([][]hst.Candidate, len(in))
	for i, ws := range in {
		if ws == nil {
			continue
		}
		cs := make([]hst.Candidate, len(ws))
		for j, w := range ws {
			cs[j] = hst.Candidate{ID: w.ID, Code: hst.Code(w.Code), Level: w.Level, Cap: w.Cap}
		}
		out[i] = cs
	}
	return out
}
