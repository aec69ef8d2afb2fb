package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
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
// Close gives up what the connection holds of its node — DialNode's idle
// streams at once, one in flight when its exchange ends — and every op
// after it is refused, typed unavailable, without a dial.
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
	Close()
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
	return StatusResponse{Epoch: cur, Len: eng.Len(), Units: eng.CapacityUnits()}, nil
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

// Close is a no-op: an in-process connection holds nothing of its node.
func (n *Node) Close() {}

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

// postOnly reports whether r is a POST, having answered the refusal when it
// is not.
func postOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodPost {
		return true
	}
	w.Header().Set("Allow", http.MethodPost)
	writeNodeJSON(w, http.StatusMethodNotAllowed, &platform.Error{
		Code:    platform.CodeMethodNotAllowed,
		Message: fmt.Sprintf("cluster: %s requires POST, got %s", r.URL.Path, r.Method),
	})
	return false
}

// writeBody answers 200 with body as JSON.
func writeBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// NodeHandler exposes a Node over the /v2 wire protocol: the ops envelope
// and the two documents. Mutating calls honour idempotency keys: one whose
// key was already applied is answered from the replay cache byte-for-byte.
func NodeHandler(n *Node) http.Handler {
	cache := newReplayCache()
	mux := http.NewServeMux()
	mux.HandleFunc(PathNodeOps, opsHandler(n, cache))
	mux.HandleFunc(PathNodeInit, documentHandler(n, cache, func() document { return new(InitRequest) }))
	mux.HandleFunc(PathNodePrepare, documentHandler(n, cache, func() document { return new(PrepareRequest) }))
	return mux
}

// opsHandler serves /v2/node/ops in its two framings. A POST that asks to
// upgrade to opsProtocol becomes a frame stream (serveOps): the path every
// coordinator takes. Any other POST is one envelope — no longer than a frame
// may be — in a Content-Length body answered in one: the reference the
// stream's answers are tested against byte for byte, and the form a recorder
// can drive. Both are answerOps under a different framing.
func opsHandler(n *Node, cache *replayCache) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.Header.Get("Upgrade") == opsProtocol {
			serveOps(w, n, cache)
			return
		}
		if !postOnly(w, r) {
			return
		}
		cb := wire.Get()
		defer wire.Put(cb)
		if err := cb.ReadRequest(w, r, maxFrame); err != nil {
			writeNodeJSON(w, http.StatusBadRequest, &platform.Error{
				Code: platform.CodeBadRequest, Message: "cluster: read body: " + err.Error(),
			})
			return
		}
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
// It is the only place an op's response shape and error taxonomy are written
// down (the grammar is in protocol.go): insert, add-capacity, consume, commit
// and abort answer a bare ack, remove its units and found, assign-subtree,
// min-id and pop-min a worker's id, level and found, status and mine what
// they read. applied marks a mutation that landed — what the replay cache
// keeps; a refusal and a read are answered afresh each time.
func execOp(n *Node, op *OpRequest, dst []byte) (out []byte, applied bool) {
	code := hst.Code(op.Code)
	switch op.Kind {
	case OpInsert:
		return appendAck(dst, n.Insert(code, op.ID, op.Capacity, op.Epoch, op.Idem), op.Epoch)
	case OpAddCapacity:
		return appendAck(dst, n.AddCapacity(code, op.ID, op.Epoch, op.Idem), op.Epoch)
	case OpConsume:
		return appendAck(dst, n.Consume(code, op.ID, op.Epoch, op.Idem), op.Epoch)
	case OpCommit:
		return appendAck(dst, n.Commit(op.Epoch, op.Idem), op.Epoch)
	case OpAbort:
		return appendAck(dst, n.Abort(op.Epoch, op.Idem), op.Epoch)
	case OpRemove:
		units, found, err := n.Remove(code, op.ID, op.Idem)
		if err != nil {
			return appendFound(appendRefusal(dst, nodeError(err, 0)), false), false
		}
		return appendRemoved(dst, units, found), true
	case OpAssignSubtree:
		id, lvl, found, err := n.AssignSubtree(code, op.Epoch, op.Idem)
		return appendAssigned(dst, id, lvl, found, err, op.Epoch)
	case OpPopMin:
		id, lvl, found, err := n.PopMin(op.Epoch, op.Idem)
		return appendAssigned(dst, id, lvl, found, err, op.Epoch)
	case OpMinID:
		id, found, err := n.MinID(op.Epoch)
		out, _ = appendAssigned(dst, id, 0, found, err, op.Epoch)
		return out, false
	case OpStatus:
		st, err := n.Status(op.Epoch)
		if err != nil {
			return appendAck(dst, err, 0)
		}
		return appendStatus(dst, st), false
	case OpMine:
		codes := make([]hst.Code, len(op.Codes))
		for i, c := range op.Codes {
			codes[i] = hst.Code(c)
		}
		wm, err := n.Mine(codes, op.K, op.Epoch)
		if err != nil {
			return appendAck(dst, err, op.Epoch)
		}
		return appendMined(dst, wm), false
	default:
		return appendAck(dst, &platform.Error{
			Code:    platform.CodeBadRequest,
			Message: fmt.Sprintf("cluster: unknown op kind %q", op.Kind),
		}, 0)
	}
}

// document is the header of a call that stays a POST — InitRequest,
// PrepareRequest: the first JSON value of the body, which names the call's
// idempotency key and runs it over whatever follows.
type document interface {
	key() string
	apply(n *Node, rest *json.Decoder) *platform.Error
}

// maxHeader bounds a document's header, whose size is the published tree's.
const maxHeader = 64 << 20

// documentHandler serves a document endpoint: it decodes the header — a
// member it does not know is refused, as in an envelope — answers a replayed
// key from the cache without running anything, and otherwise applies the
// document and answers its nodeAck, recorded under the key when it applied.
func documentHandler(n *Node, cache *replayCache, header func() document) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !postOnly(w, r) {
			return
		}
		body := &io.LimitedReader{R: r.Body, N: maxHeader}
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		doc, ack, key := header(), nodeAck{}, ""
		if err := dec.Decode(doc); err != nil {
			ack.Err = badBody(err)
		} else if cached, ok := cache.get(doc.key()); ok {
			// The call already applied. Read the body out, so that a client
			// still streaming it completes its write.
			io.Copy(io.Discard, r.Body)
			writeBody(w, cached)
			return
		} else {
			// What follows a header is a population, which has no bound: its
			// staging pass takes it a value at a time.
			body.N = math.MaxInt64
			if ack.Err = doc.apply(n, dec); ack.Err == nil {
				ack.OK, key = true, doc.key()
			}
		}
		cb := wire.Get()
		defer wire.Put(cb)
		_ = cb.Encode(ack) // two booleans and strings: there is nothing encoding/json refuses
		cache.put(key, cb.Bytes())
		writeBody(w, cb.Bytes())
	}
}

// atEnd refuses a document that goes on past its last value.
func atEnd(rest *json.Decoder) error {
	if _, err := rest.Token(); err != io.EOF {
		return errors.New("data after the document's last value")
	}
	return nil
}

func (r *InitRequest) key() string { return r.Idem }

// apply builds the node's engine. An init document is its header alone.
func (r *InitRequest) apply(n *Node, rest *json.Decoder) *platform.Error {
	if err := atEnd(rest); err != nil {
		return badBody(err)
	}
	return nodeError(n.Init(*r), 0)
}

func (r *PrepareRequest) key() string { return r.Idem }

// apply stages the partition that follows the header — one WireInsert a
// worker, then the {"end":N} that counts them — feeding each insert straight
// off the decoder into the node's staging pass, so the node's transient
// memory during a rotation is one staged engine, never the document. A body
// that ends without its count, counts wrong or goes on past the count was
// cut or spliced on the way: it is refused and nothing stays staged.
func (r *PrepareRequest) apply(n *Node, rest *json.Decoder) *platform.Error {
	// One value, reused: a fresh one a Decode is an allocation a worker.
	var v WireInsert
	count := 0
	err := n.Prepare(r.Epoch, r.Tree, r.Shards, func() (engine.EpochInsert, bool, error) {
		v = WireInsert{}
		err := rest.Decode(&v)
		if err == io.EOF {
			err = fmt.Errorf("the body ends after %d inserts, before their count", count)
		}
		switch {
		case err != nil:
			return engine.EpochInsert{}, false, badBody(err)
		case v.End == nil:
			count++
			return engine.EpochInsert{Code: hst.Code(v.Code), ID: v.ID, Cap: v.Cap}, true, nil
		case *v.End != count || v.Code != nil || v.ID != 0 || v.Cap != 0:
			return engine.EpochInsert{}, false, badBody(fmt.Errorf("end %d after %d inserts", *v.End, count))
		}
		return engine.EpochInsert{}, false, nil
	}, r.Idem)
	if err == nil {
		if err = atEnd(rest); err != nil {
			// A refused prepare must not be left committable.
			n.Abort(r.Epoch, "")
			err = badBody(err)
		}
	}
	return nodeError(err, r.Epoch)
}

func badBody(err error) *platform.Error {
	return &platform.Error{Code: platform.CodeBadRequest, Message: "cluster: bad request: " + err.Error()}
}

func writeNodeJSON(w http.ResponseWriter, status int, e *platform.Error) {
	cb := wire.Get()
	defer wire.Put(cb)
	cb.Append(func(dst []byte) []byte { return append(appendError(dst, e), '\n') })
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(cb.Len()))
	w.WriteHeader(status)
	w.Write(cb.Bytes())
}

// httpNode is a NodeConn over the /v2 wire protocol. Every call but Init and
// Prepare goes through ops, which ships it as an op of a /v2/node/ops
// envelope, one frame each on a stream a slot owns; those two are one POST
// per call.
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
	for _, path := range []string{PathNodeInit, PathNodeOps, PathNodePrepare} {
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
// ops' streams are dialed lazily too: the first op that finds a slot
// without one sends the /v2/node/ops upgrade, so a connection holds at most
// GOMAXPROCS long-lived connections to its node and redials by itself after
// the node restarts or reaps them. The hop to the node must therefore be an
// HTTP/1.1 path that passes Upgrade, as a WebSocket needs.
func DialNode(baseURL string) NodeConn {
	return DialNodeTimeouts(baseURL, NodeTimeouts{})
}

// nodeClient is the process-wide client for coordinator→node traffic: one
// tuned connection pool (keep-alives, generous per-host idle conns) shared
// by every dialed node, so the document POSTs of a coordinator fanning out
// to N backends reuse warm connections instead of re-dialing under load (a
// stream leaves the pool when it is upgraded).
var nodeClient = &http.Client{Transport: platform.NewTransport()}

// DialNodeTimeouts is DialNode with explicit per-operation deadlines
// (zero fields take the defaults).
func DialNodeTimeouts(baseURL string, to NodeTimeouts) NodeConn {
	return newHTTPNode(baseURL, nodeClient, to)
}

// DialNodeClient is DialNode with a caller-supplied HTTP client (tests pin
// transports; deployments pin proxies): it carries the document POSTs and
// the upgrade request that opens each stream, so its transport, TLS
// configuration and RoundTrippers apply to both. Per-operation deadlines
// still apply on top. hc.Timeout must be zero — with one, net/http wraps
// every response body, the upgraded connection's included, and no stream
// can be opened (an op then fails naming that cause) — and so must a
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

// post sends one document — body of size bytes (0: a stream of unknown
// length, the rotation prepare) under deadline d — and returns what its
// nodeAck says; an error status decodes into a typed error. Failures of the
// transport itself — connection refused, truncated reads, an answer that
// does not decode — wrap errTransport: the coordinator retries those (with
// the same idempotency key), never application refusals. An expired
// deadline is NOT a transport failure: it surfaces as a typed
// retryable-unavailable error immediately, because blindly re-running a
// call that just consumed its full time budget doubles the stall without
// changing the outcome.
func (h *httpNode) post(path string, body io.Reader, size int64, d time.Duration) error {
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
	if err := rb.ReadAll(resp.Body, maxFrame); err != nil {
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
	var ack nodeAck
	if err := rb.Unmarshal(&ack); err != nil {
		return fmt.Errorf("%w: decode %s: %v", errTransport, path, err)
	}
	return envErr(ack.Err)
}

// envErr converts a response's Err into a Go error, restoring the engine
// staleness sentinel for stale_epoch codes.
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
	cb := wire.Get()
	defer wire.Put(cb)
	if err := cb.Encode(req); err != nil {
		return fmt.Errorf("cluster: encode %s: %w", PathNodeInit, err)
	}
	return h.post(PathNodeInit, cb.Reader(), int64(cb.Len()), h.timeouts.op())
}

// op ships one op and returns its sub-result, a refusal folded into err.
func (h *httpNode) op(op OpRequest) (opResult, error) {
	res, err := h.ops.do(op)
	if err == nil {
		err = envErr(res.Err)
	}
	return res, err
}

// assigned ships an op whose answer is a worker: assign-subtree, min-id,
// pop-min.
func (h *httpNode) assigned(op OpRequest) (id, level int, found bool, err error) {
	res, err := h.op(op)
	if err != nil {
		return engine.None, 0, false, err
	}
	return res.ID, res.Level, res.Found, nil
}

func (h *httpNode) Status(epoch int64) (StatusResponse, error) {
	res, err := h.op(OpRequest{Kind: OpStatus, Epoch: epoch})
	return StatusResponse{Epoch: res.Epoch, Len: res.Len, Units: res.Units}, err
}

func (h *httpNode) Insert(code hst.Code, id, capacity int, epoch int64, idem string) error {
	_, err := h.op(OpRequest{Kind: OpInsert, Idem: idem, Code: []byte(code), ID: id, Capacity: capacity, Epoch: epoch})
	return err
}

func (h *httpNode) AddCapacity(code hst.Code, id int, epoch int64, idem string) error {
	_, err := h.op(OpRequest{Kind: OpAddCapacity, Idem: idem, Code: []byte(code), ID: id, Epoch: epoch})
	return err
}

func (h *httpNode) Consume(code hst.Code, id int, epoch int64, idem string) error {
	_, err := h.op(OpRequest{Kind: OpConsume, Idem: idem, Code: []byte(code), ID: id, Epoch: epoch})
	return err
}

func (h *httpNode) Remove(code hst.Code, id int, idem string) (int, bool, error) {
	res, err := h.op(OpRequest{Kind: OpRemove, Idem: idem, Code: []byte(code), ID: id})
	return res.Units, res.Found, err
}

func (h *httpNode) AssignSubtree(code hst.Code, epoch int64, idem string) (int, int, bool, error) {
	return h.assigned(OpRequest{Kind: OpAssignSubtree, Idem: idem, Code: []byte(code), Epoch: epoch})
}

func (h *httpNode) MinID(epoch int64) (int, bool, error) {
	id, _, found, err := h.assigned(OpRequest{Kind: OpMinID, Epoch: epoch})
	return id, found, err
}

func (h *httpNode) PopMin(epoch int64, idem string) (int, int, bool, error) {
	return h.assigned(OpRequest{Kind: OpPopMin, Idem: idem, Epoch: epoch})
}

func (h *httpNode) Mine(codes []hst.Code, k int, epoch int64) (*engine.WindowMine, error) {
	op := OpRequest{Kind: OpMine, Codes: make([][]byte, len(codes)), K: k, Epoch: epoch}
	for i, c := range codes {
		op.Codes[i] = []byte(c)
	}
	res, err := h.op(op)
	if err != nil {
		return nil, err
	}
	wm := &engine.WindowMine{Epoch: res.Epoch, Pool: res.Pool, Own: res.Own, Pads: res.Pads}
	// A node sent no codes leaves own out of its answer.
	if wm.Own == nil {
		wm.Own = make([][]hst.Candidate, len(codes))
	}
	return wm, nil
}

func (h *httpNode) Commit(epoch int64, idem string) error {
	_, err := h.op(OpRequest{Kind: OpCommit, Idem: idem, Epoch: epoch})
	return err
}

func (h *httpNode) Abort(epoch int64, idem string) error {
	_, err := h.op(OpRequest{Kind: OpAbort, Idem: idem, Epoch: epoch})
	return err
}

// Close closes the idle streams and has every later op refused (see
// batcher.close).
func (h *httpNode) Close() { h.ops.close() }

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
// ship an op to fall back to.
func (h *httpNode) sendOps(s *wire.Stream, batch []*batchedOp) (*wire.Stream, error) {
	d := h.timeouts.op()
	if s == nil {
		var err error
		if s, err = h.dialOps(d); err != nil {
			return nil, err
		}
	}
	limit := maxFrame
	for _, bo := range batch {
		if bo.op.Kind == OpMine {
			limit = maxMineAnswer
		}
	}
	var refusal *platform.Error
	answer, err := s.Exchange(d, limit, func(dst []byte) []byte { return appendOpsRequest(dst, batch) })
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

// Prepare streams the prepare document through an io.Pipe: the header (so
// the node can replay-check before any work), the inserts encoded one at a
// time, and their count — the partition is never materialized as wire
// structs or an encoded document on this side. Runs under the prepare
// deadline, not the op deadline.
func (h *httpNode) Prepare(epoch int64, tree *hst.Tree, shards int, next func() (engine.EpochInsert, bool, error), idem string) error {
	pr, pw := io.Pipe()
	encoded := make(chan struct{})
	go func() {
		defer close(encoded)
		bw := bufio.NewWriterSize(pw, 1<<16)
		enc := json.NewEncoder(bw)
		err := enc.Encode(PrepareRequest{Idem: idem, Epoch: epoch, Shards: shards, Tree: tree})
		var v WireInsert // one value behind one pointer: Encode boxes a fresh one a worker
		count := 0
		for err == nil {
			in, ok, nextErr := next()
			if nextErr != nil || !ok {
				err = nextErr
				break
			}
			v = WireInsert{Code: []byte(in.Code), ID: in.ID, Cap: in.Cap}
			err = enc.Encode(&v)
			count++
		}
		if err == nil {
			if err = enc.Encode(WireInsert{End: &count}); err == nil {
				err = bw.Flush()
			}
		}
		pw.CloseWithError(err)
	}()
	err := h.post(PathNodePrepare, pr, 0, h.timeouts.prepare())
	// Stop the encoder if it is still writing (the node may answer before
	// reading the whole body) and wait it out: next belongs to the caller
	// again once Prepare returns.
	pr.Close()
	<-encoded
	return err
}

var _ NodeConn = (*httpNode)(nil)
