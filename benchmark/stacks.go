package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"time"

	"github.com/pombm/pombm/internal/cluster"
	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/rng"
)

// processStart anchors the one monotonic clock every timing and span uses.
var processStart = time.Now()

func now() int64 { return int64(time.Since(processStart)) }

// lifetimeBudget puts privacy.Accountant on the path of every fresh report
// while being far too large for any worker of any tape to park.
const lifetimeBudget = 1e9

// clusterNodes is the coordinator's backend count.
const clusterNodes = 3

// spanHeader carries the causing span's id across an HTTP hop.
const spanHeader = "X-Bench-Span"

// stack is one serving stack under test on real loopback listeners, plus
// the handles the harness drives, rotates and checks it through. Every
// stack publishes the same epoch-1 tree: each derives it from serverSeed
// exactly as a pombm-server would.
type stack struct {
	spec spec
	// eng is the engine behind engine-churn, serve-lifecycle and
	// batch-window; nil on cluster-lifecycle, whose engines live inside the
	// nodes.
	eng *engine.Engine
	// srv is the serving layer (nil on engine-churn): the coordinator's on
	// cluster-lifecycle.
	srv *platform.Server
	// url is the agent-facing listener and transport the agents' own
	// connection pool (lifecycle workloads only).
	url       string
	transport *http.Transport
	rec       *Recorder // nil on untraced repetitions
	closers   []func()
}

func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
}

// listen mounts h on a fresh loopback listener.
func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns ErrServerClosed at Close
	}()
	st.closers = append(st.closers, func() {
		hs.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// ownTransport returns a connection pool this stack owns and drains at
// close, so repetitions never share warm connections.
func (st *stack) ownTransport() *http.Transport {
	t := platform.NewTransport()
	st.closers = append(st.closers, t.CloseIdleConnections)
	return t
}

func serverTree() (*hst.Tree, error) {
	grid, err := geo.NewGrid(region, gridSide, gridSide)
	if err != nil {
		return nil, err
	}
	return hst.Build(grid.Points(), rng.New(serverSeed).Derive("server-hst"))
}

// core returns the platform.Core a server fronts: the engine itself, or on
// a traced repetition the span-recording decorator around it.
func (st *stack) core() platform.Core {
	if st.rec == nil {
		return st.eng
	}
	return &tracedCore{Engine: st.eng, rec: st.rec}
}

// buildStack stands up the workload's stack. rec non-nil wires the tracing
// seams in; the program's own code is the same either way.
func buildStack(sp spec, rec *Recorder) (*stack, error) {
	st := &stack{spec: sp, rec: rec}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	switch sp.name {
	case "engine-churn":
		tree, err := serverTree()
		if err != nil {
			return nil, err
		}
		if st.eng, err = engine.New(tree, 0); err != nil {
			return nil, err
		}
	case "serve-lifecycle", "batch-window":
		tree, err := serverTree()
		if err != nil {
			return nil, err
		}
		var opts []engine.Option
		if sp.name == "batch-window" {
			opts = []engine.Option{engine.WithPolicy(engine.BatchOptimal(engine.DefaultBatchTopK)), engine.WithDefaultCapacity(sp.capacity)}
		}
		if st.eng, err = engine.NewWithOptions(tree, 0, opts...); err != nil {
			return nil, err
		}
		st.srv, err = platform.NewServer(region, gridSide, gridSide, epsilon, serverSeed,
			platform.WithCore(st.core()), platform.WithLifetimeBudget(lifetimeBudget))
		if err != nil {
			return nil, err
		}
		if sp.name == "serve-lifecycle" {
			if st.url, err = st.listen(st.middleware(platform.Handler(st.srv), agentHandlerKind)); err != nil {
				return nil, err
			}
			st.transport = st.ownTransport()
		}
	case "cluster-lifecycle":
		var nodeRT http.RoundTripper = st.ownTransport()
		if rec != nil {
			nodeRT = &nodeRoundTripper{base: nodeRT, rec: rec}
		}
		hc := &http.Client{Transport: nodeRT}
		conns := make([]cluster.NodeConn, clusterNodes)
		for i := range conns {
			url, err := st.listen(st.middleware(cluster.NodeHandler(cluster.NewNode()), nodeHandlerKind))
			if err != nil {
				return nil, err
			}
			conns[i] = cluster.DialNodeClient(url, hc)
		}
		coord, err := cluster.New(cluster.Config{
			Region: region, Cols: gridSide, Rows: gridSide, Epsilon: epsilon, Seed: serverSeed,
			Nodes: conns, Lifetime: lifetimeBudget,
		})
		if err != nil {
			return nil, err
		}
		st.srv = coord.Server()
		if st.url, err = st.listen(st.middleware(coord.Handler(), agentHandlerKind)); err != nil {
			return nil, err
		}
		st.transport = st.ownTransport()
	default:
		return nil, fmt.Errorf("unknown workload %q", sp.name)
	}
	ok = true
	return st, nil
}

// publication is what an agent obfuscates under: fetched over HTTP where
// the stack has a listener, read from the server or assembled around the
// engine's tree otherwise.
func (st *stack) publication() (platform.Publication, error) {
	switch {
	case st.url != "":
		cl, err := platform.NewClient(st.url)
		if err != nil {
			return platform.Publication{}, err
		}
		return cl.Publication(), nil
	case st.srv != nil:
		return st.srv.Publication(), nil
	}
	return publicationFor(st.eng.Tree(), st.eng.Epoch()), nil
}

func publicationFor(tree *hst.Tree, epoch int64) platform.Publication {
	return platform.Publication{Tree: tree, Region: region, Cols: gridSide, Rows: gridSide, Epsilon: epsilon, Epoch: epoch}
}

// agentClient returns one agent's HTTP client on the stack's shared pool.
// On a traced repetition its round tripper tags every request with the
// span the owning goroutine announced in rt.parent.
func (st *stack) agentClient() (*platform.Client, *agentRoundTripper) {
	cl := &platform.Client{BaseURL: st.url, HTTP: &http.Client{Transport: st.transport}}
	if st.rec == nil {
		return cl, nil
	}
	rt := &agentRoundTripper{base: st.transport}
	rt.trace = &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		rt.conns++
		if info.Reused {
			rt.reused++
		}
	}}
	cl.HTTP = &http.Client{Transport: rt}
	return cl, rt
}

// ---- tracing seams (benchmark files only; the program is untouched) ----

// middleware wraps a handler with a span per request, parented on the id
// the caller put in the request header. Untraced stacks get h back.
func (st *stack) middleware(h http.Handler, kindOf func(path string) spanKind) http.Handler {
	if st.rec == nil {
		return h
	}
	rec := st.rec
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 32)
		id := rec.Begin(kindOf(r.URL.Path), uint32(parent), -1)
		h.ServeHTTP(w, r)
		rec.End(id, 1)
	})
}

func agentHandlerKind(path string) spanKind {
	switch path {
	case platform.PathTask:
		return kHandlerSubmit
	case platform.PathRelease:
		return kHandlerRelease
	case platform.PathRegister:
		return kHandlerRegister
	case platform.PathWithdraw:
		return kHandlerWithdraw
	}
	return kHandlerOther
}

func nodeHandlerKind(string) spanKind { return kNodeHandler }

func nodeRequestKind(path string) spanKind {
	switch path {
	case cluster.PathNodeOps:
		return kNodeReqOps
	case cluster.PathNodeMinID:
		return kNodeReqMinID
	case cluster.PathNodePopMin:
		return kNodeReqPopMin
	case cluster.PathNodePrepare:
		return kNodeReqPrepare
	case cluster.PathNodeCommit:
		return kNodeReqCommit
	}
	return kNodeReqOther
}

// withSpan returns a shallow copy of req carrying id in the span header (a
// RoundTripper must not modify the request it was given).
func withSpan(req *http.Request, id uint32) *http.Request {
	r2 := new(http.Request)
	*r2 = *req
	r2.Header = req.Header.Clone()
	r2.Header.Set(spanHeader, strconv.FormatUint(uint64(id), 10))
	return r2
}

// agentRoundTripper belongs to one client goroutine, which sets parent to
// the span of the call it is about to make; that is how a span id reaches
// the request without the program's client API knowing about spans.
type agentRoundTripper struct {
	base          http.RoundTripper
	trace         *httptrace.ClientTrace
	parent        uint32
	conns, reused int
}

func (t *agentRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	r2 := withSpan(req, t.parent)
	return t.base.RoundTrip(r2.WithContext(httptrace.WithClientTrace(req.Context(), t.trace)))
}

// nodeRoundTripper records one span per coordinator → node request. The
// span ends when the response headers arrive; node replies are a few dozen
// bytes that arrive with them. An ops envelope's payload count is the
// number of operations it carries, read off the request body — from
// outside, an envelope cannot be attributed to one agent request.
type nodeRoundTripper struct {
	base http.RoundTripper
	rec  *Recorder
}

var opKindKey = []byte(`"kind":`)

func (t *nodeRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	kind, n := nodeRequestKind(req.URL.Path), 1
	if kind == kNodeReqOps && req.Body != nil {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		n = bytes.Count(body, opKindKey)
		r2 := new(http.Request)
		*r2 = *req
		r2.Body = io.NopCloser(bytes.NewReader(body))
		req = r2
	}
	id := t.rec.Begin(kind, 0, -1)
	resp, err := t.base.RoundTrip(withSpan(req, id))
	t.rec.End(id, n)
	return resp, err
}

// tracedCore is the platform.Core decorator handed to platform.WithCore on
// traced repetitions. Embedding the engine forwards everything it does not
// time — including SwapEpochSeq, which the server reaches through an
// optional interface: a decorator that hid it would push the traced server
// onto the materialized rotation path the untraced one never takes.
// (AssignErr, the other optional extension, is the cluster core's; the
// engine does not have it, so there is nothing to forward.)
type tracedCore struct {
	*engine.Engine
	rec *Recorder
}

func (c *tracedCore) Assign(code hst.Code) (int, int, bool) {
	id := c.rec.Begin(kCoreAssign, 0, -1)
	w, lvl, ok := c.Engine.Assign(code)
	c.rec.End(id, 1)
	return w, lvl, ok
}

func (c *tracedCore) AssignBatch(codes []hst.Code) ([]int, []int) {
	id := c.rec.Begin(kCoreBatch, 0, -1)
	ids, lvls := c.Engine.AssignBatch(codes)
	c.rec.End(id, len(codes))
	return ids, lvls
}

func (c *tracedCore) InsertEpoch(code hst.Code, w int, epoch int64) error {
	id := c.rec.Begin(kCoreInsert, 0, -1)
	err := c.Engine.InsertEpoch(code, w, epoch)
	c.rec.End(id, 1)
	return err
}

func (c *tracedCore) InsertCapEpoch(code hst.Code, w, capacity int, epoch int64) error {
	id := c.rec.Begin(kCoreInsert, 0, -1)
	err := c.Engine.InsertCapEpoch(code, w, capacity, epoch)
	c.rec.End(id, 1)
	return err
}

func (c *tracedCore) AddCapacityEpoch(code hst.Code, w int, epoch int64) error {
	id := c.rec.Begin(kCoreAddCap, 0, -1)
	err := c.Engine.AddCapacityEpoch(code, w, epoch)
	c.rec.End(id, 1)
	return err
}

func (c *tracedCore) Remove(code hst.Code, w int) bool {
	id := c.rec.Begin(kCoreRemove, 0, -1)
	ok := c.Engine.Remove(code, w)
	c.rec.End(id, 1)
	return ok
}

func (c *tracedCore) RemoveUnits(code hst.Code, w int) (int, bool) {
	id := c.rec.Begin(kCoreRemove, 0, -1)
	units, ok := c.Engine.RemoveUnits(code, w)
	c.rec.End(id, 1)
	return units, ok
}

func (c *tracedCore) SwapEpoch(epoch int64, tree *hst.Tree, shards int, inserts []engine.EpochInsert) error {
	id := c.rec.Begin(kCoreSwap, 0, -1)
	err := c.Engine.SwapEpoch(epoch, tree, shards, inserts)
	c.rec.End(id, len(inserts))
	return err
}

func (c *tracedCore) SwapEpochSeq(epoch int64, tree *hst.Tree, shards int, seq func(yield func(engine.EpochInsert) bool)) error {
	id := c.rec.Begin(kCoreSwap, 0, -1)
	err := c.Engine.SwapEpochSeq(epoch, tree, shards, seq)
	c.rec.End(id, 1)
	return err
}
