package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/wire"
)

// NodeConn is the coordinator's handle to one backend: the engine surface
// a node exposes over /v2, plus the two-phase rotation verbs. LocalNode
// implements it in-process (tests, the simulator, single-binary
// deployments); DialNode implements it over HTTP against a pombm-server.
//
// The idem argument on mutating calls is the idempotency key: a transport
// that retries after a lost response sends the same key, and the node
// replays the recorded answer instead of applying the mutation twice.
// In-process connections ignore it (calls cannot be duplicated).
//
// Prepare takes the node's partition of the next epoch as a pull iterator:
// next returns one insert at a time and (zero, false, nil) at end; an error
// aborts the prepare. A 10M-worker rotation would otherwise hold the whole
// partition in memory three times over (the inserts, the wire structs, and
// the encoded body). A connection calls next from one goroutine at a time
// and never again once Prepare has returned.
type NodeConn interface {
	Init(req InitRequest) error
	Status(epoch int64) (StatusResponse, error)
	Insert(code hst.Code, id, capacity int, epoch int64, idem string) error
	AddCapacity(code hst.Code, id int, epoch int64, idem string) error
	Remove(code hst.Code, id int, idem string) (units int, found bool, err error)
	AssignSubtree(code hst.Code, epoch int64, idem string) (id, level int, found bool, err error)
	MinID(epoch int64) (id int, found bool, err error)
	PopMin(epoch int64, idem string) (id, level int, found bool, err error)
	Mine(codes []hst.Code, k int, epoch int64) (*engine.WindowMine, error)
	Consume(code hst.Code, id int, epoch int64, idem string) error
	Prepare(epoch int64, tree *hst.Tree, shards int, next func() (engine.EpochInsert, bool, error), idem string) error
	Commit(epoch int64, idem string) error
	Abort(epoch int64, idem string) error
}

// Node is the backend half of a cluster member: a bare assignment engine
// (built at Init) plus the staged state of an in-flight distributed
// rotation. It has no slot tables and no budget accountant — those live
// once, at the coordinator — so a pombm-server hosting a Node serves /v2
// with nothing but engine state.
type Node struct {
	mu     sync.Mutex
	eng    *engine.Engine
	staged *engine.PreparedSwap
	// streams holds the /v2/node/ops connections being answered on.
	streams wire.Streams
}

// NewNode returns an uninitialised node; the coordinator's Init call (or a
// direct Init) gives it an engine.
func NewNode() *Node { return &Node{} }

// errNotInitialised is returned by every operation before Init.
var errNotInitialised = errors.New("cluster: node not initialised")

func (n *Node) engine() (*engine.Engine, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.eng == nil {
		return nil, errNotInitialised
	}
	return n.eng, nil
}

// Init builds (or replaces) the node's engine from the cluster-shared
// configuration. Replacing drops any staged rotation.
func (n *Node) Init(req InitRequest) error {
	if req.Tree == nil {
		return errors.New("cluster: init without a tree")
	}
	pol, err := engine.PolicyByName(req.Policy)
	if err != nil {
		return err
	}
	opts := []engine.Option{engine.WithPolicy(pol)}
	if req.DefaultCapacity != 0 {
		opts = append(opts, engine.WithDefaultCapacity(req.DefaultCapacity))
	}
	eng, err := engine.NewWithOptions(req.Tree, req.Shards, opts...)
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.eng = eng
	n.staged = nil
	n.mu.Unlock()
	return nil
}

// Status reports the serving epoch and pool size. A non-zero epoch pin
// that mismatches is reported as engine staleness.
func (n *Node) Status(epoch int64) (StatusResponse, error) {
	eng, err := n.engine()
	if err != nil {
		return StatusResponse{}, err
	}
	cur := eng.Epoch()
	if epoch != 0 && cur != epoch {
		return StatusResponse{}, fmt.Errorf("%w (status for epoch %d, serving %d)", engine.ErrStaleEpoch, epoch, cur)
	}
	return StatusResponse{OK: true, Epoch: cur, Len: eng.Len(), Units: eng.CapacityUnits()}, nil
}

// Insert lands a worker (see engine.InsertCapEpoch).
func (n *Node) Insert(code hst.Code, id, capacity int, epoch int64, _ string) error {
	eng, err := n.engine()
	if err != nil {
		return err
	}
	return eng.InsertCapEpoch(code, id, capacity, epoch)
}

// AddCapacity returns one unit (see engine.AddCapacityEpoch).
func (n *Node) AddCapacity(code hst.Code, id int, epoch int64, _ string) error {
	eng, err := n.engine()
	if err != nil {
		return err
	}
	return eng.AddCapacityEpoch(code, id, epoch)
}

// Remove withdraws a worker's pooled units (see engine.RemoveUnits).
func (n *Node) Remove(code hst.Code, id int, _ string) (int, bool, error) {
	eng, err := n.engine()
	if err != nil {
		return 0, false, err
	}
	units, ok := eng.RemoveUnits(code, id)
	return units, ok, nil
}

// AssignSubtree runs the greedy rule's node-local tiers (see
// engine.AssignSubtreeEpoch).
func (n *Node) AssignSubtree(code hst.Code, epoch int64, _ string) (int, int, bool, error) {
	eng, err := n.engine()
	if err != nil {
		return engine.None, 0, false, err
	}
	return eng.AssignSubtreeEpoch(code, epoch)
}

// MinID answers the root-tier poll (see engine.MinAvailableID).
func (n *Node) MinID(epoch int64) (int, bool, error) {
	eng, err := n.engine()
	if err != nil {
		return engine.None, false, err
	}
	return eng.MinAvailableID(epoch)
}

// PopMin commits the root tier on this node (see engine.PopMinID).
func (n *Node) PopMin(epoch int64, _ string) (int, int, bool, error) {
	eng, err := n.engine()
	if err != nil {
		return engine.None, 0, false, err
	}
	return eng.PopMinID(epoch)
}

// Mine gathers this node's window contribution (see
// engine.MineWindowCandidates).
func (n *Node) Mine(codes []hst.Code, k int, epoch int64) (*engine.WindowMine, error) {
	eng, err := n.engine()
	if err != nil {
		return nil, err
	}
	return eng.MineWindowCandidates(codes, k, epoch)
}

// Consume commits one matched window unit (see engine.ConsumeUnit).
func (n *Node) Consume(code hst.Code, id int, epoch int64, _ string) error {
	eng, err := n.engine()
	if err != nil {
		return err
	}
	return eng.ConsumeUnit(code, id, epoch)
}

// Prepare stages this node's partition of the next epoch (phase one),
// pulled one insert at a time — the staged arenas are the only copy of the
// population this node ever holds. A later Prepare for a different epoch
// replaces the staged state (staging holds no locks, so dropping it is a
// free abort).
func (n *Node) Prepare(epoch int64, tree *hst.Tree, shards int, next func() (engine.EpochInsert, bool, error), _ string) error {
	eng, err := n.engine()
	if err != nil {
		return err
	}
	staged, err := eng.PrepareSwapSeq(epoch, tree, shards, next)
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.staged = staged
	n.mu.Unlock()
	return nil
}

// Commit publishes the staged epoch (phase two). Committing an epoch the
// engine already serves acks idempotently: the effect landed, only the
// response was lost.
func (n *Node) Commit(epoch int64, _ string) error {
	eng, err := n.engine()
	if err != nil {
		return err
	}
	n.mu.Lock()
	staged := n.staged
	n.mu.Unlock()
	if staged == nil || staged.Epoch() != epoch {
		if eng.Epoch() == epoch {
			return nil
		}
		return fmt.Errorf("cluster: commit for epoch %d, nothing staged", epoch)
	}
	if err := eng.CommitSwap(staged); err != nil {
		if eng.Epoch() == epoch {
			return nil
		}
		return err
	}
	n.mu.Lock()
	if n.staged == staged {
		n.staged = nil
	}
	n.mu.Unlock()
	return nil
}

// Abort drops the staged epoch (a sibling node's prepare failed).
// Aborting an epoch that is not staged is a no-op: the abort may be a
// retry, or the prepare it cancels may never have arrived.
func (n *Node) Abort(epoch int64, _ string) error {
	n.mu.Lock()
	if n.staged != nil && n.staged.Epoch() == epoch {
		n.staged = nil
	}
	n.mu.Unlock()
	return nil
}

var _ NodeConn = (*Node)(nil)

// LocalNode returns an in-process NodeConn over a Node: the connection the
// simulator's cluster driver and single-binary deployments use. It is the
// Node itself — in-process calls cannot be duplicated, so the idempotency
// layer (which guards HTTP retries) is not in the path — and the reference
// the wire path is tested against.
func LocalNode(n *Node) NodeConn { return n }

// replayCache remembers the response bytes of recently applied mutations
// keyed by idempotency key, with two-generation rotation bounding memory:
// a key survives at least capPerGen further distinct mutations, far longer
// than any transport retry window.
type replayCache struct {
	mu   sync.Mutex
	cur  map[string][]byte
	prev map[string][]byte
}

const replayCapPerGen = 4096

func newReplayCache() *replayCache {
	return &replayCache{cur: map[string][]byte{}}
}

func (c *replayCache) get(key string) ([]byte, bool) {
	if key == "" {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.cur[key]; ok {
		return b, true
	}
	b, ok := c.prev[key]
	return b, ok
}

// put records body under key. body is the caller's scratch: the cache keeps
// its own copy, except of the one answer most entries hold — the bare ack
// of an insert, add-capacity or consume — which every such entry shares.
func (c *replayCache) put(key string, body []byte) {
	if key == "" {
		return
	}
	if bytes.Equal(body, ackOK) {
		body = ackOK
	} else {
		body = bytes.Clone(body)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.cur) >= replayCapPerGen {
		c.prev = c.cur
		c.cur = map[string][]byte{}
	}
	c.cur[key] = body
}

// nodeError folds a node-side error into the structured taxonomy for the
// wire: engine staleness becomes stale_epoch, an uninitialised node is a
// conflict, anything else a bad request.
func nodeError(err error, epoch int64) *platform.Error {
	if errors.Is(err, errNotInitialised) {
		return &platform.Error{Code: platform.CodeConflict, Message: err.Error(), Retryable: true}
	}
	return platform.AsError(err, epoch)
}

// readPost is how every buffered POST endpoint starts: it refuses another
// method and reads the body into pooled scratch, which the caller returns
// with wire.Put. It answers nil after writing the refusal itself.
func readPost(w http.ResponseWriter, r *http.Request, path string) *wire.Buf {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeNodeJSON(w, http.StatusMethodNotAllowed, &platform.Error{
			Code:    platform.CodeMethodNotAllowed,
			Message: fmt.Sprintf("cluster: %s requires POST, got %s", path, r.Method),
		})
		return nil
	}
	cb := wire.Get()
	if err := cb.ReadRequest(w, r, 64<<20); err != nil {
		wire.Put(cb)
		writeNodeJSON(w, http.StatusBadRequest, &platform.Error{
			Code: platform.CodeBadRequest, Message: "cluster: read body: " + err.Error(),
		})
		return nil
	}
	return cb
}

// writeBody answers 200 with body as JSON.
func writeBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// NodeHandler exposes a Node over the /v2 wire protocol. Mutating
// endpoints honour idempotency keys: a request whose key was already
// applied is answered from the replay cache byte-for-byte.
func NodeHandler(n *Node) http.Handler {
	cache := newReplayCache()
	mux := http.NewServeMux()

	// handlePost wires one POST endpoint whose body is one encoding/json
	// value: decode, optionally replay, execute, record. fn returns the
	// response value to encode; responses are recorded under the request's
	// idempotency key only when the mutation was actually applied (fn ran).
	// Only a keyed endpoint — one whose body carries a top-level idem (init,
	// pop-min, commit, abort) — is probed for a whole-request replay: the
	// probe is a full parse of the body, wasted on reads (the root-tier
	// poll, a whole mined window).
	handlePost := func(path string, keyed bool, fn func(body []byte) (any, string)) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			cb := readPost(w, r, path)
			if cb == nil {
				return
			}
			defer wire.Put(cb)
			body := cb.Bytes()
			if keyed {
				// Peek the idempotency key before decoding the full request
				// so replays skip the work entirely.
				var peek struct {
					Idem string `json:"idem"`
				}
				_ = json.Unmarshal(body, &peek)
				if cached, ok := cache.get(peek.Idem); ok {
					writeBody(w, cached)
					return
				}
			}
			resp, idem := fn(body)
			// The request bytes are decoded into owned structs by now;
			// reuse the pooled scratch for the response.
			cb.Reset()
			if err := cb.Encode(resp); err != nil {
				writeNodeJSON(w, http.StatusInternalServerError, &platform.Error{
					Code: platform.CodeInternal, Message: err.Error(),
				})
				return
			}
			cache.put(idem, cb.Bytes())
			writeBody(w, cb.Bytes())
		})
	}

	handlePost(PathNodeInit, true, func(body []byte) (any, string) {
		var req InitRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nodeAck{Err: badBody(err)}, ""
		}
		if err := n.Init(req); err != nil {
			return nodeAck{Err: nodeError(err, 0)}, ""
		}
		return nodeAck{OK: true}, req.Idem
	})
	handlePost(PathNodeStatus, false, func(body []byte) (any, string) {
		var req StatusRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return StatusResponse{Err: badBody(err)}, ""
		}
		resp, err := n.Status(req.Epoch)
		if err != nil {
			return StatusResponse{Err: nodeError(err, 0)}, ""
		}
		return resp, ""
	})
	handlePost(PathNodeMinID, false, func(body []byte) (any, string) {
		var req MinIDRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return MinIDResponse{Err: badBody(err)}, ""
		}
		id, found, err := n.MinID(req.Epoch)
		if err != nil {
			return MinIDResponse{Err: nodeError(err, req.Epoch)}, ""
		}
		return MinIDResponse{OK: true, ID: id, Found: found}, ""
	})
	handlePost(PathNodePopMin, true, func(body []byte) (any, string) {
		var req PopMinRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return AssignResponse{Err: badBody(err)}, ""
		}
		id, lvl, found, err := n.PopMin(req.Epoch, req.Idem)
		if err != nil {
			return AssignResponse{Err: nodeError(err, req.Epoch)}, ""
		}
		return AssignResponse{OK: true, ID: id, Level: lvl, Found: found}, req.Idem
	})
	handlePost(PathNodeMine, false, func(body []byte) (any, string) {
		var req MineRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return MineResponse{Err: badBody(err)}, ""
		}
		codes := make([]hst.Code, len(req.Codes))
		for i, c := range req.Codes {
			codes[i] = hst.Code(c)
		}
		wm, err := n.Mine(codes, req.K, req.Epoch)
		if err != nil {
			return MineResponse{Err: nodeError(err, req.Epoch)}, ""
		}
		return MineResponse{
			OK: true, Epoch: wm.Epoch, Pool: wm.Pool,
			Own: toWireCands(wm.Own), Pads: toWireCands(wm.Pads),
		}, ""
	})
	// The envelope has its own handler: its bodies are the hot path and go
	// through the ops codec, and replay is per sub-op, not per request.
	mux.HandleFunc(PathNodeOps, opsHandler(n, cache))
	// Prepare gets a dedicated streaming handler: its body scales with the
	// population partition, so buffering it through the generic path would
	// hold the whole partition in memory beside the staged arenas (and the
	// generic 64MB body cap would refuse large rotations outright).
	mux.HandleFunc(PathNodePrepare, prepareHandler(n, cache))
	handlePost(PathNodeCommit, true, func(body []byte) (any, string) {
		var req CommitRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nodeAck{Err: badBody(err)}, ""
		}
		if err := n.Commit(req.Epoch, req.Idem); err != nil {
			return nodeAck{Err: nodeError(err, req.Epoch)}, ""
		}
		return nodeAck{OK: true}, req.Idem
	})
	handlePost(PathNodeAbort, true, func(body []byte) (any, string) {
		var req AbortRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nodeAck{Err: badBody(err)}, ""
		}
		if err := n.Abort(req.Epoch, req.Idem); err != nil {
			return nodeAck{Err: nodeError(err, req.Epoch)}, ""
		}
		return nodeAck{OK: true}, req.Idem
	})
	return mux
}

// opsHandler serves /v2/node/ops in its two framings. A POST that asks to
// upgrade to opsProtocol becomes a frame stream (serveOps): the path every
// coordinator takes. Any other POST is one envelope in a Content-Length body
// answered in one — the reference the stream's answers are tested against
// byte for byte, and the form a recorder can drive. Both are answerOps under
// a different framing.
func opsHandler(n *Node, cache *replayCache) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.Header.Get("Upgrade") == opsProtocol {
			serveOps(w, n, cache)
			return
		}
		cb := readPost(w, r, PathNodeOps)
		if cb == nil {
			return
		}
		defer wire.Put(cb)
		// Most envelopes carry one op; a window's commits spill to the heap.
		var few [4]OpRequest
		ops, err := scanOps(cb.Bytes(), few[:0])
		// The ops own their strings and codes: the scratch is free for the
		// answer.
		cb.Reset()
		cb.Append(func(env []byte) []byte { return answerOps(n, cache, ops, err, env) })
		writeBody(w, cb.Bytes())
	}
}

// answerOps appends the answer to one scanned envelope to dst: the refusal
// of the whole envelope when it did not scan (err), otherwise its ops run in
// order, each answered from the replay cache if its key was already applied
// — the sub-op is the replay unit, so a duplicated envelope, or the same op
// regrouped into another one by a retry, replays the recorded bytes instead
// of re-applying. The envelope itself carries no idem and is never cached as
// a whole.
func answerOps(n *Node, cache *replayCache, ops []OpRequest, err error, dst []byte) []byte {
	if err != nil {
		return append(appendRefusal(dst, badBody(err)), `,"results":null}`+"\n"...)
	}
	dst = append(dst, `{"ok":true,"results":[`...)
	for i := range ops {
		if i > 0 {
			dst = append(dst, ',')
		}
		op := &ops[i]
		if cached, ok := cache.get(op.Idem); ok {
			dst = append(dst, cached...)
			continue
		}
		start, applied := len(dst), false
		if dst, applied = execOp(n, op, dst); applied {
			cache.put(op.Idem, dst[start:])
		}
	}
	return append(dst, "]}\n"...)
}

// execOp runs one envelope sub-operation and appends its sub-result to dst.
// It is the only place a routed op's response shape and error taxonomy are
// written down (the grammar is in protocol.go): insert, add-capacity and
// consume answer a bare ack, remove its units and found, assign-subtree its
// id, level and found. applied false marks a refusal, which is never
// cached.
func execOp(n *Node, op *OpRequest, dst []byte) (out []byte, applied bool) {
	code := hst.Code(op.Code)
	switch op.Kind {
	case OpInsert:
		return appendAck(dst, n.Insert(code, op.ID, op.Capacity, op.Epoch, op.Idem), op.Epoch)
	case OpAddCapacity:
		return appendAck(dst, n.AddCapacity(code, op.ID, op.Epoch, op.Idem), op.Epoch)
	case OpConsume:
		return appendAck(dst, n.Consume(code, op.ID, op.Epoch, op.Idem), op.Epoch)
	case OpRemove:
		units, found, err := n.Remove(code, op.ID, op.Idem)
		if err != nil {
			return appendFound(appendRefusal(dst, nodeError(err, 0)), false), false
		}
		return appendRemoved(dst, units, found), true
	case OpAssignSubtree:
		id, lvl, found, err := n.AssignSubtree(code, op.Epoch, op.Idem)
		if err != nil {
			return appendFound(appendRefusal(dst, nodeError(err, op.Epoch)), false), false
		}
		return appendAssigned(dst, id, lvl, found), true
	default:
		return appendAck(dst, &platform.Error{
			Code:    platform.CodeBadRequest,
			Message: fmt.Sprintf("cluster: unknown op kind %q", op.Kind),
		}, 0)
	}
}

// prepareHandler decodes a prepare body incrementally and feeds the
// inserts straight into the node's staging pass, so the node's transient
// memory during a rotation is one staged engine — never the JSON document.
// It accepts any encoding of a PrepareRequest whose "inserts" come last
// (which is what lets the scalar fields land before the array streams).
// The idempotency key is honoured when it precedes the inserts — the
// client emits it first; a replayed prepare is answered from the cache
// without re-staging.
func prepareHandler(n *Node, cache *replayCache) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeNodeJSON(w, http.StatusMethodNotAllowed, &platform.Error{
				Code:    platform.CodeMethodNotAllowed,
				Message: fmt.Sprintf("cluster: %s requires POST, got %s", PathNodePrepare, r.Method),
			})
			return
		}
		var (
			req      PrepareRequest // scalar fields only; Inserts stays nil
			dec      = json.NewDecoder(r.Body)
			staged   bool
			stageErr error
		)
		respond := func(resp nodeAck, idem string) {
			out, err := json.Marshal(resp)
			if err != nil {
				writeNodeJSON(w, http.StatusInternalServerError, &platform.Error{
					Code: platform.CodeInternal, Message: err.Error(),
				})
				return
			}
			cache.put(idem, out)
			w.Header().Set("Content-Type", "application/json")
			w.Write(out)
		}
		fail := func(err error) {
			if staged {
				// The body broke after its inserts were staged: drop them, a
				// refused prepare must not be left committable.
				n.Abort(req.Epoch, "")
			}
			respond(nodeAck{Err: badBody(err)}, "")
		}

		tok, err := dec.Token()
		if err != nil {
			fail(err)
			return
		}
		if d, ok := tok.(json.Delim); !ok || d != '{' {
			fail(fmt.Errorf("expected object, got %v", tok))
			return
		}
		for dec.More() {
			keyTok, err := dec.Token()
			if err != nil {
				fail(err)
				return
			}
			key, _ := keyTok.(string)
			if staged {
				// Inserts come last (see PrepareRequest): nothing that
				// follows may re-key, re-pin or re-stage what they built.
				fail(fmt.Errorf("field %q after inserts", key))
				return
			}
			switch key {
			case "idem":
				if err := dec.Decode(&req.Idem); err != nil {
					fail(err)
					return
				}
				if cached, ok := cache.get(req.Idem); ok {
					// Replay: the mutation already applied; drain the body so
					// the streaming client's write completes cleanly.
					io.Copy(io.Discard, r.Body)
					w.Header().Set("Content-Type", "application/json")
					w.Write(cached)
					return
				}
			case "epoch":
				if err := dec.Decode(&req.Epoch); err != nil {
					fail(err)
					return
				}
			case "shards":
				if err := dec.Decode(&req.Shards); err != nil {
					fail(err)
					return
				}
			case "tree":
				if err := dec.Decode(&req.Tree); err != nil {
					fail(err)
					return
				}
			case "inserts":
				tok, err := dec.Token()
				if err != nil {
					fail(err)
					return
				}
				var next func() (engine.EpochInsert, bool, error)
				switch {
				case tok == nil: // "inserts":null — an empty partition
					next = noInserts
				default:
					if d, ok := tok.(json.Delim); !ok || d != '[' {
						fail(fmt.Errorf("inserts field: expected array, got %v", tok))
						return
					}
					next = func() (engine.EpochInsert, bool, error) {
						if !dec.More() {
							if _, err := dec.Token(); err != nil { // consume ']'
								return engine.EpochInsert{}, false, err
							}
							return engine.EpochInsert{}, false, nil
						}
						var wi WireInsert
						if err := dec.Decode(&wi); err != nil {
							return engine.EpochInsert{}, false, err
						}
						return engine.EpochInsert{Code: hst.Code(wi.Code), ID: wi.ID, Cap: wi.Cap}, true, nil
					}
				}
				stageErr = n.Prepare(req.Epoch, req.Tree, req.Shards, next, req.Idem)
				staged = true
				if stageErr != nil {
					// The staging pass may have stopped mid-array, leaving
					// the decoder unusable; answer now rather than parse on.
					respond(nodeAck{Err: nodeError(stageErr, req.Epoch)}, "")
					return
				}
			default:
				if err := skipJSONValue(dec); err != nil {
					fail(err)
					return
				}
			}
		}
		if _, err := dec.Token(); err != nil { // consume '}'
			fail(err)
			return
		}
		if !staged {
			// No inserts field at all: a legal empty prepare.
			stageErr = n.Prepare(req.Epoch, req.Tree, req.Shards, noInserts, req.Idem)
		}
		if stageErr != nil {
			respond(nodeAck{Err: nodeError(stageErr, req.Epoch)}, "")
			return
		}
		respond(nodeAck{OK: true}, req.Idem)
	}
}

// noInserts is the pull iterator over an empty partition.
func noInserts() (engine.EpochInsert, bool, error) { return engine.EpochInsert{}, false, nil }

// skipJSONValue consumes one JSON value of any shape off a decoder.
func skipJSONValue(dec *json.Decoder) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	d, ok := tok.(json.Delim)
	if !ok || (d != '{' && d != '[') {
		return nil
	}
	depth := 1
	for depth > 0 {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		if d, ok := tok.(json.Delim); ok {
			switch d {
			case '{', '[':
				depth++
			case '}', ']':
				depth--
			}
		}
	}
	return nil
}

func badBody(err error) *platform.Error {
	return &platform.Error{Code: platform.CodeBadRequest, Message: "cluster: bad request: " + err.Error()}
}

func writeNodeJSON(w http.ResponseWriter, status int, e *platform.Error) {
	cb := wire.Get()
	defer wire.Put(cb)
	if err := cb.Encode(e); err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(cb.Len()))
	w.WriteHeader(status)
	w.Write(cb.Bytes())
}

// httpNode is a NodeConn over the /v2 wire protocol. The five
// single-worker mutations (insert, add-capacity, remove, assign-subtree,
// consume) go through ops, which ships them as /v2/node/ops envelopes, one
// frame each on a stream a slot owns; everything else is one POST per call.
type httpNode struct {
	// reqs holds one request template per /v2 path — URL parsed, headers
	// set — built once at dial; every call sends a shallow copy carrying
	// its own context and body, and nothing on the way writes through the
	// shared URL or header map. PathNodeOps' is the upgrade request that
	// opens a stream and has no body. dialErr is why there are none.
	reqs     map[string]*http.Request
	dialErr  error
	client   *http.Client
	timeouts NodeTimeouts
	ops      batcher
}

func newHTTPNode(baseURL string, hc *http.Client, to NodeTimeouts) *httpNode {
	h := &httpNode{reqs: map[string]*http.Request{}, client: hc, timeouts: to}
	for _, path := range []string{
		PathNodeInit, PathNodeStatus, PathNodeOps, PathNodeMinID, PathNodePopMin,
		PathNodeMine, PathNodePrepare, PathNodeCommit, PathNodeAbort,
	} {
		var (
			req *http.Request
			err error
		)
		if path == PathNodeOps {
			req, err = wire.UpgradeRequest(http.MethodPost, baseURL+path, opsProtocol)
		} else if req, err = http.NewRequest(http.MethodPost, baseURL+path, nil); err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if err != nil {
			h.dialErr = fmt.Errorf("cluster: node address %q: %w", baseURL, err)
			break
		}
		h.reqs[path] = req
	}
	h.ops.conn = h
	h.ops.slots = runtime.GOMAXPROCS(0)
	return h
}

// NodeTimeouts bounds each /v2 round trip by operation class. A single
// flat client timeout cannot serve both: routed mutations and mining must
// fail fast (the coordinator holds locks across them), while a rotation
// prepare ships an entire population partition and legitimately runs for
// minutes at 10M workers — under a flat 30s budget large rotations time
// out forever. Zero fields take the defaults.
type NodeTimeouts struct {
	// Op bounds every routed call: insert, remove, assign, status, mine,
	// consume, commit, abort, init.
	Op time.Duration
	// Prepare bounds the rotation prepare, whose body and staging time
	// scale with the population partition.
	Prepare time.Duration
}

const (
	// DefaultOpTimeout is the per-call deadline for routed operations.
	DefaultOpTimeout = 30 * time.Second
	// DefaultPrepareTimeout is deliberately generous: a 10M-worker prepare
	// streams hundreds of megabytes and rebuilds the node's arenas.
	DefaultPrepareTimeout = 10 * time.Minute
)

func (t NodeTimeouts) op() time.Duration {
	if t.Op > 0 {
		return t.Op
	}
	return DefaultOpTimeout
}

func (t NodeTimeouts) prepare() time.Duration {
	if t.Prepare > 0 {
		return t.Prepare
	}
	return DefaultPrepareTimeout
}

// DialNode returns a NodeConn for a backend base URL (e.g.
// "http://node0:8080") with default per-operation deadlines. No eager
// handshake happens — the coordinator's Init is the first contact — and the
// routed ops' streams are dialed lazily too: the first op that finds a slot
// without one sends the /v2/node/ops upgrade, so a connection holds at most
// GOMAXPROCS long-lived connections to its node and redials by itself after
// the node restarts or reaps them. The hop to the node must therefore be an
// HTTP/1.1 path that passes Upgrade, as a WebSocket needs.
func DialNode(baseURL string) NodeConn {
	return DialNodeTimeouts(baseURL, NodeTimeouts{})
}

// nodeClient is the process-wide client for coordinator→node traffic: one
// tuned connection pool (keep-alives, generous per-host idle conns) shared
// by every dialed node, so the control-plane POSTs of a coordinator fanning
// out to N backends reuse warm connections instead of re-dialing under load
// (a stream leaves the pool when it is upgraded).
var nodeClient = &http.Client{Transport: platform.NewTransport()}

// DialNodeTimeouts is DialNode with explicit per-operation deadlines
// (zero fields take the defaults).
func DialNodeTimeouts(baseURL string, to NodeTimeouts) NodeConn {
	return newHTTPNode(baseURL, nodeClient, to)
}

// DialNodeClient is DialNode with a caller-supplied HTTP client (tests pin
// transports; deployments pin proxies): it carries the control-plane POSTs
// and the upgrade request that opens each stream, so its transport, TLS
// configuration and RoundTrippers apply to both. Per-operation deadlines
// still apply on top. hc.Timeout must be zero — with one, net/http wraps
// every response body, the upgraded connection's included, and no stream
// can be opened (a routed op then fails naming that cause) — and so must a
// RoundTripper leave the 101's body as it finds it; use DialNodeTimeouts for
// deadlines.
func DialNodeClient(baseURL string, hc *http.Client) NodeConn {
	return newHTTPNode(baseURL, hc, NodeTimeouts{})
}

// deadlineErr is the typed refusal for an expired per-operation deadline:
// retryable-unavailable, so the serving layer reports a backend that is up
// but too slow exactly like one that is down — the caller may retry, the
// mutation (keyed by idem) cannot double-apply.
func deadlineErr(path string, d time.Duration) error {
	return &platform.Error{
		Code:      platform.CodeUnavailable,
		Message:   fmt.Sprintf("cluster: %s exceeded its %s deadline", path, d),
		Retryable: true,
	}
}

// post sends one /v2 request and decodes the response envelope with
// encoding/json. See postBody for how failures are classified.
func (h *httpNode) post(path string, in, out any) error {
	cb := wire.Get()
	defer wire.Put(cb)
	if err := cb.Encode(in); err != nil {
		return fmt.Errorf("cluster: encode %s: %w", path, err)
	}
	return h.postBody(path, cb.Reader(), int64(cb.Len()), h.timeouts.op(), func(rb *wire.Buf) error {
		return rb.Unmarshal(out)
	})
}

// postBody sends one /v2 request — body of size bytes (0: a stream of
// unknown length, the rotation prepare) under deadline d — and hands the
// body of a 200 answer to decode. An error status decodes into a typed
// error. Failures of the transport itself — connection refused, truncated
// reads, an answer decode refuses — wrap errTransport: the coordinator
// retries those (with the same idempotency key), never application
// refusals. An expired deadline is NOT a transport failure: it surfaces as
// a typed retryable-unavailable error immediately, because blindly
// re-running a call that just consumed its full time budget doubles the
// stall without changing the outcome.
func (h *httpNode) postBody(path string, body io.Reader, size int64, d time.Duration, decode func(rb *wire.Buf) error) error {
	if h.dialErr != nil {
		return h.dialErr
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	// The body may be pooled codec scratch, which must not be re-read after
	// this call returns: the template has no GetBody, so net/http never
	// rewinds it for a retry of its own.
	req := h.reqs[path].WithContext(ctx)
	req.Body, req.ContentLength = io.NopCloser(body), size
	resp, err := h.client.Do(req)
	if err != nil {
		if ctx.Err() == context.DeadlineExceeded {
			return deadlineErr(path, d)
		}
		return fmt.Errorf("%w: POST %s: %v", errTransport, path, err)
	}
	defer resp.Body.Close()
	rb := wire.Get()
	defer wire.Put(rb)
	// ReadAll drains the body past the cap, so the keep-alive connection
	// returns to the pool clean.
	if err := rb.ReadAll(resp.Body, 64<<20); err != nil {
		if ctx.Err() == context.DeadlineExceeded {
			return deadlineErr(path, d)
		}
		return fmt.Errorf("%w: read %s: %v", errTransport, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		var we platform.Error
		raw := bytes.TrimSpace(rb.Bytes())
		if json.Unmarshal(raw, &we) == nil && we.Code != "" {
			return &we
		}
		return fmt.Errorf("%w: %s returned %s: %s", errTransport, path, resp.Status, raw)
	}
	if err := decode(rb); err != nil {
		return fmt.Errorf("%w: decode %s: %v", errTransport, path, err)
	}
	return nil
}

// envErr converts a response envelope's Err into a Go error, restoring the
// engine staleness sentinel for stale_epoch codes.
func envErr(e *platform.Error) error {
	if e == nil {
		return nil
	}
	if e.Code == platform.CodeStaleEpoch {
		return fmt.Errorf("%w: %s", engine.ErrStaleEpoch, e.Message)
	}
	return e
}

func (h *httpNode) Init(req InitRequest) error {
	var resp nodeAck
	if err := h.post(PathNodeInit, req, &resp); err != nil {
		return err
	}
	return envErr(resp.Err)
}

func (h *httpNode) Status(epoch int64) (StatusResponse, error) {
	var resp StatusResponse
	if err := h.post(PathNodeStatus, StatusRequest{Epoch: epoch}, &resp); err != nil {
		return StatusResponse{}, err
	}
	return resp, envErr(resp.Err)
}

// acked ships a routed op whose whole answer is an ack.
func (h *httpNode) acked(op OpRequest) error {
	res, err := h.ops.do(op)
	if err != nil {
		return err
	}
	return envErr(res.Err)
}

func (h *httpNode) Insert(code hst.Code, id, capacity int, epoch int64, idem string) error {
	return h.acked(OpRequest{Kind: OpInsert, Idem: idem, Code: []byte(code), ID: id, Capacity: capacity, Epoch: epoch})
}

func (h *httpNode) AddCapacity(code hst.Code, id int, epoch int64, idem string) error {
	return h.acked(OpRequest{Kind: OpAddCapacity, Idem: idem, Code: []byte(code), ID: id, Epoch: epoch})
}

func (h *httpNode) Consume(code hst.Code, id int, epoch int64, idem string) error {
	return h.acked(OpRequest{Kind: OpConsume, Idem: idem, Code: []byte(code), ID: id, Epoch: epoch})
}

func (h *httpNode) Remove(code hst.Code, id int, idem string) (int, bool, error) {
	res, err := h.ops.do(OpRequest{Kind: OpRemove, Idem: idem, Code: []byte(code), ID: id})
	if err != nil {
		return 0, false, err
	}
	return res.Units, res.Found, envErr(res.Err)
}

func (h *httpNode) AssignSubtree(code hst.Code, epoch int64, idem string) (int, int, bool, error) {
	res, err := h.ops.do(OpRequest{Kind: OpAssignSubtree, Idem: idem, Code: []byte(code), Epoch: epoch})
	if err == nil {
		err = envErr(res.Err)
	}
	if err != nil {
		return engine.None, 0, false, err
	}
	return res.ID, res.Level, res.Found, nil
}

func (h *httpNode) MinID(epoch int64) (int, bool, error) {
	var resp MinIDResponse
	if err := h.post(PathNodeMinID, MinIDRequest{Epoch: epoch}, &resp); err != nil {
		return engine.None, false, err
	}
	if err := envErr(resp.Err); err != nil {
		return engine.None, false, err
	}
	return resp.ID, resp.Found, nil
}

func (h *httpNode) PopMin(epoch int64, idem string) (int, int, bool, error) {
	var resp AssignResponse
	if err := h.post(PathNodePopMin, PopMinRequest{Epoch: epoch, Idem: idem}, &resp); err != nil {
		return engine.None, 0, false, err
	}
	if err := envErr(resp.Err); err != nil {
		return engine.None, 0, false, err
	}
	return resp.ID, resp.Level, resp.Found, nil
}

func (h *httpNode) Mine(codes []hst.Code, k int, epoch int64) (*engine.WindowMine, error) {
	wire := make([][]byte, len(codes))
	for i, c := range codes {
		wire[i] = []byte(c)
	}
	var resp MineResponse
	if err := h.post(PathNodeMine, MineRequest{Codes: wire, K: k, Epoch: epoch}, &resp); err != nil {
		return nil, err
	}
	if err := envErr(resp.Err); err != nil {
		return nil, err
	}
	wm := &engine.WindowMine{
		Epoch: resp.Epoch,
		Pool:  resp.Pool,
		Own:   fromWireCands(resp.Own),
		Pads:  fromWireCands(resp.Pads),
	}
	// JSON drops empty inner slices to null; re-shape so indexing by task
	// and shard stays valid.
	if wm.Own == nil {
		wm.Own = make([][]hst.Candidate, len(codes))
	}
	return wm, nil
}

// sendOps ships one envelope as a frame on s — the stream of the slot its
// caller holds, dialed here when the slot came without one — and lands each
// op's sub-result in its slot. It returns the stream for the slot to keep:
// nil when the exchange cost it. Envelope-level failures — the dial, the
// stream, a refused envelope, an answer that does not scan or does not hold
// one result per op (a transport failure: the retry taxonomy callers already
// handle, never an application refusal) — are the error; per-op outcomes are
// the slots' own. A failed exchange closes its stream, and a transport
// failure the node's idle streams with it, so callNode's retry dials afresh
// and the replay cache answers whatever did land; there is no other way to
// ship a routed op to fall back to.
func (h *httpNode) sendOps(s *wire.Stream, batch []*batchedOp) (*wire.Stream, error) {
	d := h.timeouts.op()
	if s == nil {
		var err error
		if s, err = h.dialOps(d); err != nil {
			return nil, err
		}
	}
	var refusal *platform.Error
	answer, err := s.Exchange(d, maxFrame, func(dst []byte) []byte { return appendOpsRequest(dst, batch) })
	if err != nil {
		err = streamErr(PathNodeOps+" stream", d, err)
	} else if refusal, err = scanOpsResponse(answer, batch); err != nil {
		err = fmt.Errorf("%w: decode %s: %v", errTransport, PathNodeOps, err)
	}
	if err != nil {
		s.Close()
		if isTransport(err) {
			h.ops.dropIdle()
		}
		return nil, err
	}
	return s, envErr(refusal)
}

// Prepare streams the prepare body: the idem and scalar fields first (so
// the node can replay-check before any work), the tree, then the inserts
// encoded one at a time through an io.Pipe — the partition is never
// materialized as wire structs or an encoded document on this side. Runs
// under the prepare deadline, not the op deadline.
func (h *httpNode) Prepare(epoch int64, tree *hst.Tree, shards int, next func() (engine.EpochInsert, bool, error), idem string) error {
	treeJSON, err := json.Marshal(tree)
	if err != nil {
		return fmt.Errorf("cluster: encode %s tree: %w", PathNodePrepare, err)
	}
	idemJSON, err := json.Marshal(idem)
	if err != nil {
		return fmt.Errorf("cluster: encode %s idem: %w", PathNodePrepare, err)
	}
	pr, pw := io.Pipe()
	encoded := make(chan struct{})
	go func() {
		defer close(encoded)
		bw := bufio.NewWriterSize(pw, 1<<16)
		fmt.Fprintf(bw, `{"idem":%s,"epoch":%d,"shards":%d,"tree":%s,"inserts":[`,
			idemJSON, epoch, shards, treeJSON)
		comma := false
		for {
			in, ok, err := next()
			if err != nil {
				pw.CloseWithError(err)
				return
			}
			if !ok {
				break
			}
			if comma {
				bw.WriteByte(',')
			}
			comma = true
			b, err := json.Marshal(WireInsert{Code: []byte(in.Code), ID: in.ID, Cap: in.Cap})
			if err != nil {
				pw.CloseWithError(err)
				return
			}
			if _, err := bw.Write(b); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		bw.WriteString("]}")
		pw.CloseWithError(bw.Flush())
	}()
	var resp nodeAck
	err = h.postBody(PathNodePrepare, pr, 0, h.timeouts.prepare(), func(rb *wire.Buf) error { return rb.Unmarshal(&resp) })
	// Stop the encoder if it is still writing (the node may answer before
	// reading the whole body) and wait it out: next belongs to the caller
	// again once Prepare returns.
	pr.Close()
	<-encoded
	if err != nil {
		return err
	}
	return envErr(resp.Err)
}

func (h *httpNode) Commit(epoch int64, idem string) error {
	var resp nodeAck
	if err := h.post(PathNodeCommit, CommitRequest{Epoch: epoch, Idem: idem}, &resp); err != nil {
		return err
	}
	return envErr(resp.Err)
}

func (h *httpNode) Abort(epoch int64, idem string) error {
	var resp nodeAck
	if err := h.post(PathNodeAbort, AbortRequest{Epoch: epoch, Idem: idem}, &resp); err != nil {
		return err
	}
	return envErr(resp.Err)
}

var _ NodeConn = (*httpNode)(nil)
