package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/wiretap"
)

// tappedCore is a coordinator core over one node behind a parking wiretap:
// the rig of the torn-stream tests, which decide the fate of every frame.
type tappedCore struct {
	t       *testing.T
	tree    *hst.Tree
	node    *Node
	srv     *wiretap.MortalServer
	conn    *httpNode
	core    *fanCore
	tap     *wiretap.Tap
	arrived <-chan *wiretap.Frame
}

func newTappedCore(t *testing.T, to NodeTimeouts) *tappedCore {
	r := &tappedCore{t: t, tree: buildTree(t, 7), node: NewNode()}
	r.srv = wiretap.NewMortalServer(t, NodeHandler(r.node))
	var hc *http.Client
	r.tap, hc = wiretap.New(t, platform.NewTransport())
	r.conn = newHTTPNode(r.srv.URL, hc, to)
	pol, err := engine.PolicyByName("capacity-greedy")
	if err != nil {
		t.Fatal(err)
	}
	if r.core, err = newFanCore([]NodeConn{r.conn}, r.tree, pol, "capacity-greedy", 1); err != nil {
		t.Fatal(err)
	}
	r.arrived = r.tap.Park()
	return r
}

// start runs op on its own goroutine — its frames park — and returns where
// its outcome lands.
func (r *tappedCore) start(op func() error) <-chan error {
	done := make(chan error, 1)
	go func() { done <- op() }()
	return done
}

// next returns the next frame to leave, failing the test if none does.
func (r *tappedCore) next(what string) *wiretap.Frame {
	r.t.Helper()
	select {
	case f := <-r.arrived:
		return f
	case <-time.After(10 * time.Second):
		r.t.Fatalf("timed out waiting for %s", what)
		return nil
	}
}

// status reads the node's pool, in-process: over the wire it would be one
// more frame waiting for a fate.
func (r *tappedCore) status() (workers, units int) {
	r.t.Helper()
	st, err := r.node.Do(OpRequest{Kind: OpStatus})
	if err != nil {
		r.t.Fatal(err)
	}
	return st.Len, st.Units
}

// TestTornStreamAppliesOnce cuts the connection under each kind of op that
// mutates — the five routed ones, the root tier's pop, and the rotation's
// commit and abort — after the node applied the request frame and before the
// coordinator read the answer. do's one retry must dial a fresh
// stream, resend the same bytes — the same idempotency key — and be answered
// out of the replay cache with the very bytes the cut swallowed, and the
// node's pool must show the op applied once.
func TestTornStreamAppliesOnce(t *testing.T) {
	r := newTappedCore(t, NodeTimeouts{})
	code := []byte(r.tree.CodeOf(0))
	next := buildTree(t, 8)
	// prepare stages an epoch of two workers: a document, which no tap parks.
	prepare := func(epoch int64) func() {
		return func() {
			inserts := []engine.EpochInsert{{Code: next.CodeOf(0), ID: 7, Cap: 1}, {Code: next.CodeOf(1), ID: 8, Cap: 1}}
			if err := r.conn.Prepare(epoch, next, nextOf(inserts), r.core.nextIdem()); err != nil {
				t.Fatal(err)
			}
		}
	}
	assigned := func(res OpResult) error {
		if !res.Found || res.ID != 1 {
			return fmt.Errorf("assigned %+v", res)
		}
		return nil
	}
	for i, step := range []struct {
		before         func() // what the op needs in place, untapped
		op             OpRequest
		check          func(OpResult) error // what its answer must be; nil: any success
		workers, units int                  // the pool once the op has applied exactly once
	}{
		{nil, OpRequest{Kind: OpInsert, Code: code, ID: 1, Capacity: 4}, nil, 1, 4},
		{nil, OpRequest{Kind: OpConsume, Code: code, ID: 1}, nil, 1, 3},
		{nil, OpRequest{Kind: OpAddCapacity, Code: code, ID: 1}, nil, 1, 4},
		{nil, OpRequest{Kind: OpAssignSubtree, Code: code}, assigned, 1, 3},
		{nil, OpRequest{Kind: OpPopMin}, assigned, 1, 2},
		{nil, OpRequest{Kind: OpRemove, Code: code, ID: 1}, func(res OpResult) error {
			if !res.Found || res.Units != 2 {
				return fmt.Errorf("removed %+v", res)
			}
			return nil
		}, 0, 0},
		{prepare(2), OpRequest{Kind: OpCommit, Epoch: 2}, nil, 2, 2},
		{prepare(3), OpRequest{Kind: OpAbort, Epoch: 3}, nil, 2, 2},
	} {
		if step.before != nil {
			step.before()
		}
		step.op.Idem = r.core.nextIdem()
		kind := step.op.Kind
		done := r.start(func() error {
			res, err := r.core.do(0, true, step.op)
			if err == nil && step.check != nil {
				err = step.check(res)
			}
			return err
		})
		torn := r.next(kind + "'s frame")
		torn.Fate <- wiretap.Cut
		again := r.next(kind + "'s retry")
		again.Fate <- wiretap.Forward
		if err := <-done; err != nil {
			t.Fatalf("%s over a torn stream: %v", kind, err)
		}
		if !bytes.Contains(torn.Payload, []byte(`"kind":"`+kind+`"`)) || !bytes.Equal(torn.Payload, again.Payload) {
			t.Errorf("%s: the retry sent\n%s\nafter\n%s", kind, again.Payload, torn.Payload)
		}
		swallowed, replayed := r.tap.AnswerOf(torn), r.tap.AnswerOf(again)
		if !bytes.Contains(swallowed, []byte(`"ok":true`)) || !bytes.Equal(swallowed, replayed) {
			t.Errorf("%s: the retry was answered\n%s\nwant the bytes the cut swallowed:\n%s", kind, replayed, swallowed)
		}
		if workers, units := r.status(); workers != step.workers || units != step.units {
			t.Errorf("after %s the node holds %d workers and %d units, want %d and %d: applied other than once",
				kind, workers, units, step.workers, step.units)
		}
		// A commit publishes what was staged and an abort drops it.
		r.node.mu.Lock()
		staged := r.node.staged
		r.node.mu.Unlock()
		if staged != nil {
			t.Errorf("after %s the node still has epoch %d staged", kind, staged.Epoch())
		}
		// The first op dialed the first stream; every cut cost one more.
		if got := r.tap.Upgrades(); got != i+2 {
			t.Errorf("after %s: %d streams dialed, want %d", kind, got, i+2)
		}
	}
	if st, err := r.node.Do(OpRequest{Kind: OpStatus}); err != nil || st.Epoch != 2 {
		t.Errorf("the node serves epoch %d (err %v), want the 2 the torn commit published, not the 3 the torn abort dropped", st.Epoch, err)
	}
}

// TestRestartedNodeCostsOneRetry: every connection of a node dies while all
// of the coordinator's streams to it sit idle. The next op meets the failure
// once — the first dead stream takes the other idle ones with it — so its
// one retry dials afresh and succeeds, and the caller sees no error.
func TestRestartedNodeCostsOneRetry(t *testing.T) {
	r := newTappedCore(t, NodeTimeouts{})
	slots := r.conn.ops.slots
	insert := func(id int) func() error {
		return func() error { return r.core.InsertCapEpoch(r.tree.CodeOf(id), id, 1, 0) }
	}
	// One op a slot, all in flight at once: a stream a slot, then all idle.
	var dones []<-chan error
	for id := range slots {
		dones = append(dones, r.start(insert(id)))
	}
	var held []*wiretap.Frame
	for range slots {
		held = append(held, r.next("a frame a slot"))
	}
	for _, f := range held {
		f.Fate <- wiretap.Forward
	}
	for _, done := range dones {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if idle := len(r.conn.ops.idle); idle != slots || r.tap.Upgrades() != slots {
		t.Fatalf("%d idle streams of %d dialed, want %d", idle, r.tap.Upgrades(), slots)
	}

	r.srv.KillConns()
	done := r.start(insert(slots))
	r.next("the frame that meets a dead stream").Fate <- wiretap.Forward
	r.next("its retry").Fate <- wiretap.Forward
	if err := <-done; err != nil {
		t.Fatalf("the op after the restart: %v", err)
	}
	if got := r.tap.Upgrades(); got != slots+1 {
		t.Errorf("%d streams dialed, want the %d that died and one for the retry", got, slots)
	}
	if idle := len(r.conn.ops.idle); idle != 1 {
		t.Errorf("%d idle streams after the retry, want the fresh one alone", idle)
	}
	if workers, _ := r.status(); workers != slots+1 {
		t.Errorf("node holds %d workers, want %d", workers, slots+1)
	}
}

// TestStalledStreamIsTheTypedDeadline: a node that takes a frame and answers
// nothing costs the op its deadline and no more — the typed retryable
// unavailable refusal, not a transport failure, so nothing is resent — and
// costs the connection that one stream: the next op dials.
func TestStalledStreamIsTheTypedDeadline(t *testing.T) {
	const opDeadline = 100 * time.Millisecond
	r := newTappedCore(t, NodeTimeouts{Op: opDeadline})
	code := r.tree.CodeOf(0)
	warm := r.start(func() error { return r.core.InsertCapEpoch(code, 1, 1, 0) })
	r.next("the warming frame").Fate <- wiretap.Forward
	if err := <-warm; err != nil {
		t.Fatal(err)
	}

	began := time.Now()
	done := r.start(func() error { return r.core.InsertCapEpoch(code, 2, 1, 0) })
	r.next("the frame to stall").Fate <- wiretap.Stall
	err := <-done
	if took := time.Since(began); took < opDeadline || took > 50*opDeadline {
		t.Errorf("the stalled op returned after %v under a %v deadline", took, opDeadline)
	}
	var pe *platform.Error
	if !errors.As(err, &pe) || pe.Code != platform.CodeUnavailable || !pe.Retryable {
		t.Fatalf("stalled op: %v, want the typed retryable %s", err, platform.CodeUnavailable)
	}
	if isTransport(err) {
		t.Fatalf("the deadline was classified a transport failure: %v", err)
	}
	select {
	case f := <-r.arrived:
		t.Fatalf("the stalled op was resent: %s", f.Payload)
	default:
	}
	if idle := len(r.conn.ops.idle); idle != 0 {
		t.Errorf("the stalled stream went back on the idle list (%d idle)", idle)
	}

	after := r.start(func() error { return r.core.InsertCapEpoch(code, 3, 1, 0) })
	r.next("the op after the stall").Fate <- wiretap.Forward
	if err := <-after; err != nil {
		t.Fatalf("the op after the stall: %v", err)
	}
	if got := r.tap.Upgrades(); got != 2 {
		t.Errorf("%d streams dialed, want the stalled one and a fresh one", got)
	}
	if workers, _ := r.status(); workers != 2 {
		t.Errorf("node holds %d workers, want the 2 whose frames reached it", workers)
	}
}

// TestStreamOutlivesServerTimeouts: the deadlines an http.Server's
// ReadTimeout and WriteTimeout put on a connection are gone once it is a
// stream — a frame sent after four timeouts of silence is answered on the
// same connection.
func TestStreamOutlivesServerTimeouts(t *testing.T) {
	tree := buildTree(t, 7)
	ts := httptest.NewUnstartedServer(NodeHandler(NewNode()))
	ts.Config.ReadTimeout, ts.Config.WriteTimeout = 50*time.Millisecond, 50*time.Millisecond
	ts.Start()
	defer ts.Close()
	tap, hc := wiretap.New(t, platform.NewTransport())
	conn := DialNodeClient(ts.URL, hc)
	if err := conn.Init(InitRequest{Tree: tree}); err != nil {
		t.Fatal(err)
	}
	code := []byte(tree.CodeOf(0))
	if _, err := conn.Do(OpRequest{Kind: OpInsert, Idem: "s-1", Code: code, ID: 1, Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if res, err := conn.Do(OpRequest{Kind: OpAssignSubtree, Idem: "s-2", Code: code}); err != nil || !res.Found || res.ID != 1 {
		t.Fatalf("the frame after the silence: %+v, err %v", res, err)
	}
	if frames, _ := tap.Sent(); len(frames) != 2 || tap.Upgrades() != 1 {
		t.Errorf("%d frames on %d streams, want both ops on the one stream", len(frames), tap.Upgrades())
	}
}

// TestIdleStreamIsReaped: a stream that carries nothing for opsIdleLimit is
// closed by the node — no http.Server timeout or Close ever would — and its
// goroutine ends; the coordinator finds out on its next op, whose retry
// dials afresh, and the caller is told nothing.
func TestIdleStreamIsReaped(t *testing.T) {
	defer func(d time.Duration) { opsIdleLimit = d }(opsIdleLimit)
	opsIdleLimit = 50 * time.Millisecond

	tree := buildTree(t, 7)
	node := NodeHandler(NewNode())
	ended := make(chan struct{}, 4) // a stream's handler returned; room for every stream the test dials
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		node.ServeHTTP(w, r)
		if r.Header.Get("Upgrade") != "" {
			ended <- struct{}{}
		}
	}))
	defer ts.Close()
	tap, hc := wiretap.New(t, platform.NewTransport())
	pol, _ := engine.PolicyByName("greedy")
	core, err := newFanCore([]NodeConn{DialNodeClient(ts.URL, hc)}, tree, pol, "greedy", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.InsertCapEpoch(tree.CodeOf(0), 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ended:
	case <-time.After(10 * time.Second):
		t.Fatal("the node kept an idle stream past its limit")
	}
	if id, _, ok, err := core.AssignErr(tree.CodeOf(0)); err != nil || !ok || id != 1 {
		t.Fatalf("the op after the reap: id %d, ok %v, err %v", id, ok, err)
	}
	if frames, _ := tap.Sent(); len(frames) != 3 || tap.Upgrades() != 2 {
		t.Errorf("%d frames on %d streams, want the insert, the assign that met the reaped stream and its retry on a second",
			len(frames), tap.Upgrades())
	}
}

// TestDialRefusalNamesItsCause: a client or a hop that cannot carry a stream
// fails the routed op as a transport failure that says what to fix.
func TestDialRefusalNamesItsCause(t *testing.T) {
	tree := buildTree(t, 7)
	node := NodeHandler(NewNode())
	direct := httptest.NewServer(node)
	defer direct.Close()
	// What a proxy that drops hop-by-hop headers leaves of the upgrade.
	stripped := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Upgrade")
		r.Header.Del("Connection")
		node.ServeHTTP(w, r)
	}))
	defer stripped.Close()
	for _, tc := range []struct {
		name string
		conn NodeConn
		want string
	}{
		{"a client timeout", DialNodeClient(direct.URL, &http.Client{Transport: direct.Client().Transport, Timeout: time.Minute}), "http.Client.Timeout"},
		{"a hop that drops Upgrade", DialNodeClient(stripped.URL, stripped.Client()), "answered 200 OK"},
	} {
		_, err := tc.conn.Do(OpRequest{Kind: OpInsert, Idem: "d-1", Code: []byte(tree.CodeOf(0)), ID: 1, Capacity: 1})
		if err == nil || !isTransport(err) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want a transport failure naming %q", tc.name, err, tc.want)
		}
	}
}

// TestRoutedOpAllocs pins what a warm routed op allocates end to end — the
// coordinator's side and the node's, which the test's one process both is:
// nothing. The coordinator encodes the caller's code where it lies; the node
// scans the op's idem and code as views of the frame and of its stream's
// scratch, hands the code to the engine as one, and records the answer in a
// replay cache whose tables and slabs are sized once. A POST per envelope
// cost 91.
func TestRoutedOpAllocs(t *testing.T) {
	tree := buildTree(t, 7)
	ts := httptest.NewServer(NodeHandler(NewNode()))
	defer ts.Close()
	tr := platform.NewTransport()
	defer tr.CloseIdleConnections()
	conn := DialNodeClient(ts.URL, &http.Client{Transport: tr})
	if err := conn.Init(InitRequest{Tree: tree}); err != nil {
		t.Fatal(err)
	}
	const runs = 200
	idems := make([]string, 2*(runs+2)) // AllocsPerRun warms up with one run of its own
	for i := range idems {
		idems[i] = fmt.Sprintf("AbCdEf%04d", i)
	}
	code, next := []byte(tree.CodeOf(3)), 0
	cycle := func() {
		if _, err := conn.Do(OpRequest{Kind: OpInsert, Idem: idems[next], Code: code, ID: 12345, Capacity: 1}); err != nil {
			t.Fatal(err)
		}
		if res, err := conn.Do(OpRequest{Kind: OpAssignSubtree, Idem: idems[next+1], Code: code}); err != nil || !res.Found {
			t.Fatal(res, err)
		}
		next += 2
	}
	cycle() // dials the stream, grows both sides' buffers
	if perOp := testing.AllocsPerRun(runs, cycle) / 2; perOp != 0 {
		t.Errorf("a warm routed op allocates %.1f, want 0", perOp)
	}
}

// TestCloseEndsTheStreams: a coordinator that stops closes its end of every
// stream — the idle ones at once, one in flight when its exchange is over —
// so the node's ends go with them instead of waiting out opsIdleLimit, and an
// op after Close is refused, typed unavailable, without a dial. An in-process
// connection has nothing to close.
func TestCloseEndsTheStreams(t *testing.T) {
	r := newTappedCore(t, NodeTimeouts{})
	insert := func(r *tappedCore, id int) func() error {
		return func() error { return r.core.InsertCapEpoch(r.tree.CodeOf(id), id, 1, 0) }
	}
	first := r.start(insert(r, 1))
	r.next("the frame that dials a stream").Fate <- wiretap.Forward
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if open, idle := r.node.streams.Open(), len(r.conn.ops.idle); open != 1 || idle != 1 {
		t.Fatalf("the node answers on %d streams and %d are idle, want the one", open, idle)
	}
	(&Coordinator{core: r.core}).Close()
	waitFor(t, "the node's end of the idle stream to close", func() bool { return r.node.streams.Open() == 0 })

	_, before := r.tap.Sent()
	err := insert(r, 2)()
	var pe *platform.Error
	if !errors.As(err, &pe) || pe.Code != platform.CodeUnavailable || isTransport(err) {
		t.Errorf("an op after Close: %v, want the typed %s", err, platform.CodeUnavailable)
	}
	select {
	case f := <-r.arrived:
		t.Errorf("an op after Close left in a frame: %s", f.Payload)
	default:
	}
	if _, after := r.tap.Sent(); len(after) != len(before) {
		t.Errorf("an op after Close sent %v", after[len(before):])
	}

	// Closed over an exchange: the op is answered, its stream is not kept.
	r = newTappedCore(t, NodeTimeouts{})
	inFlight := r.start(insert(r, 1))
	held := r.next("the frame in flight over the close")
	r.conn.Close()
	held.Fate <- wiretap.Forward
	if err := <-inFlight; err != nil {
		t.Fatalf("the op in flight over the close: %v", err)
	}
	waitFor(t, "the node's end of the stream that was in flight to close", func() bool { return r.node.streams.Open() == 0 })
	if idle := len(r.conn.ops.idle); idle != 0 {
		t.Errorf("%d streams parked on a closed connection", idle)
	}
	if workers, _ := r.status(); workers != 1 {
		t.Errorf("node holds %d workers, want the one inserted over the close", workers)
	}

	local := LocalNode(r.node)
	local.Close()
	if _, err := local.Do(OpRequest{Kind: OpStatus}); err != nil {
		t.Errorf("an in-process connection after Close: %v", err)
	}
}
