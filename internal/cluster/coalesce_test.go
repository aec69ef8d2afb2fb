package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/wire"
	"github.com/pombm/pombm/internal/wiretap"
)

// postRaw POSTs a prebuilt body and returns the status and response bytes.
func postRaw(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes()
}

// TestOpsEnvelopeReplayByteExact pins the envelope replay contract: a
// duplicated /v2/node/ops request replays every sub-op byte-exactly from
// the per-op cache without re-applying a single mutation — and keeps doing
// so after a cache generation rotation (the keys survive in the previous
// generation).
func TestOpsEnvelopeReplayByteExact(t *testing.T) {
	tree := buildTree(t, 7)
	node := NewNode()
	ts := httptest.NewServer(NodeHandler(node))
	defer ts.Close()
	conn := DialNode(ts.URL)
	if err := conn.Init(InitRequest{Tree: tree, Idem: "init-1"}); err != nil {
		t.Fatal(err)
	}

	env, err := json.Marshal(OpsRequest{Ops: []OpRequest{
		{Kind: OpInsert, Idem: "e-1", Code: []byte(tree.CodeOf(0)), ID: 1, Epoch: 1},
		{Kind: OpInsert, Idem: "e-2", Code: []byte(tree.CodeOf(1)), ID: 2, Epoch: 1},
		{Kind: OpAssignSubtree, Idem: "e-3", Code: []byte(tree.CodeOf(0)), Epoch: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	status, first := postRaw(t, ts.URL+PathNodeOps, env)
	if status != http.StatusOK || !strings.Contains(string(first), `"ok":true`) {
		t.Fatalf("envelope refused: %d %s", status, first)
	}
	eng, _ := node.engine()
	wantLen := eng.Len()

	_, second := postRaw(t, ts.URL+PathNodeOps, env)
	if !bytes.Equal(first, second) {
		t.Fatalf("envelope replay differs:\n%s\n---\n%s", first, second)
	}
	if got := eng.Len(); got != wantLen {
		t.Fatalf("replay re-applied mutations: pool %d, want %d", got, wantLen)
	}

	// Rotate the replay cache one generation (wire.ReplayKeysPerGen further
	// distinct keyed mutations) and replay again: the keys must survive in
	// the previous generation.
	filler := make([]OpRequest, 0, 128)
	id := 1000
	for n := 0; n < wire.ReplayKeysPerGen; n += len(filler) {
		filler = filler[:0]
		for i := 0; i < 128 && n+i < wire.ReplayKeysPerGen; i++ {
			filler = append(filler, OpRequest{
				Kind: OpInsert, Idem: fmt.Sprintf("fill-%d", id),
				Code: []byte(tree.CodeOf(id % tree.NumPoints())), ID: id, Epoch: 1,
			})
			id++
		}
		fenv, err := json.Marshal(OpsRequest{Ops: filler})
		if err != nil {
			t.Fatal(err)
		}
		if status, _ := postRaw(t, ts.URL+PathNodeOps, fenv); status != http.StatusOK {
			t.Fatalf("filler envelope refused: %d", status)
		}
	}
	wantLen = eng.Len()
	_, third := postRaw(t, ts.URL+PathNodeOps, env)
	if !bytes.Equal(first, third) {
		t.Fatalf("replay after generation rotation differs:\n%s\n---\n%s", first, third)
	}
	if got := eng.Len(); got != wantLen {
		t.Fatalf("post-rotation replay re-applied mutations: pool %d, want %d", got, wantLen)
	}
}

// TestOpsEnvelopeMixedOutcomesCachePerOp pins per-op caching on a mixed
// batch: successful sub-ops replay from the cache, refused sub-ops are
// never cached — the keyed retry re-executes, and succeeds once the
// refusal's cause is gone.
func TestOpsEnvelopeMixedOutcomesCachePerOp(t *testing.T) {
	tree := buildTree(t, 7)
	node := NewNode()
	ts := httptest.NewServer(NodeHandler(node))
	defer ts.Close()
	conn := DialNode(ts.URL)
	if err := conn.Init(InitRequest{Tree: tree, Idem: "init-1"}); err != nil {
		t.Fatal(err)
	}

	// Op m-2 pins epoch 2 while the node serves epoch 1: a stale_epoch
	// refusal between two successes.
	env, err := json.Marshal(OpsRequest{Ops: []OpRequest{
		{Kind: OpInsert, Idem: "m-1", Code: []byte(tree.CodeOf(0)), ID: 1, Epoch: 1},
		{Kind: OpInsert, Idem: "m-2", Code: []byte(tree.CodeOf(1)), ID: 2, Epoch: 2},
		{Kind: OpInsert, Idem: "m-3", Code: []byte(tree.CodeOf(2)), ID: 3, Epoch: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, first := postRaw(t, ts.URL+PathNodeOps, env)
	var resp OpsResponse
	if err := json.Unmarshal(first, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Results) != 3 {
		t.Fatalf("envelope answer: %s", first)
	}
	for i, want := range []string{`"ok":true`, "stale_epoch", `"ok":true`} {
		if !strings.Contains(string(resp.Results[i]), want) {
			t.Fatalf("op %d: got %s, want %q", i, resp.Results[i], want)
		}
	}
	eng, _ := node.engine()
	if got := eng.Len(); got != 2 {
		t.Fatalf("applied %d inserts, want 2", got)
	}

	// Rotate the node to epoch 2 and re-send the identical envelope: the
	// two successes replay (pool unchanged by them), the refused op
	// re-executes — a cached error would replay the refusal — and now
	// lands.
	if err := conn.Prepare(2, tree, nextOf([]engine.EpochInsert{
		{Code: tree.CodeOf(0), ID: 1, Cap: 1},
		{Code: tree.CodeOf(2), ID: 3, Cap: 1},
	}), "prep-2"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Do(OpRequest{Kind: OpCommit, Idem: "commit-2", Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	_, second := postRaw(t, ts.URL+PathNodeOps, env)
	if err := json.Unmarshal(second, &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp.Results[1]), `"ok":true`) {
		t.Fatalf("retried op still refused after rotation (error was cached?): %s", resp.Results[1])
	}
	if got := eng.Len(); got != 3 {
		t.Fatalf("pool %d after retry, want 3 (replays must not re-apply, retry must apply once)", got)
	}
}

// TestCoalescedMatchesPerOpTape is the differential gate for the wire
// path: the same randomised operation tape — inserts, removals,
// multi-window batch assignments, with an epoch rotation mid-tape — driven
// through a coordinator over real HTTP backends (every routed op an
// envelope sub-op) and one over the in-process reference connections
// produces identical answers, both pinned to the single-process engine.
func TestCoalescedMatchesPerOpTape(t *testing.T) {
	tree := buildTree(t, 7)
	next := buildTree(t, 8)
	for _, tc := range []struct {
		name  string
		nodes []NodeConn
	}{
		{"http-3", httpNodes(t, 3)},
		{"local-3", localNodes(3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol, err := engine.PolicyByName("batch-optimal:k=4")
			if err != nil {
				t.Fatal(err)
			}
			core, err := newFanCore(tc.nodes, tree, pol, "batch-optimal:k=4", 1)
			if err != nil {
				t.Fatal(err)
			}
			refPol, _ := engine.PolicyByName("batch-optimal:k=4")
			eng, err := engine.NewWithOptions(tree, 0, engine.WithPolicy(refPol))
			if err != nil {
				t.Fatal(err)
			}
			runTape(t, core, eng, tree, 99)

			// Mid-tape rotation, then more tape: the wire path must hand
			// over epochs exactly like the in-process one.
			var inserts []engine.EpochInsert
			for i := 0; i < 160; i++ {
				inserts = append(inserts, engine.EpochInsert{
					Code: next.CodeOf((i * 7) % next.NumPoints()), ID: i, Cap: 1,
				})
			}
			if err := core.SwapEpochSeq(2, next, 0, slices.Values(inserts)); err != nil {
				t.Fatal(err)
			}
			if err := eng.SwapEpoch(2, next, 0, inserts); err != nil {
				t.Fatal(err)
			}
			rnd := rand.New(rand.NewSource(77))
			leaves := next.NumPoints()
			for i := 0; i < 200; i++ {
				code := next.CodeOf(rnd.Intn(leaves))
				gid, glvl, gok := core.Assign(code)
				wid, wlvl, wok := eng.Assign(code)
				if gid != wid || glvl != wlvl || gok != wok {
					t.Fatalf("post-swap assign %d: cluster (%d,%d,%v) engine (%d,%d,%v)",
						i, gid, glvl, gok, wid, wlvl, wok)
				}
			}
		})
	}
}

// TestCoalescerConcurrentOps exercises real multi-op envelopes: many
// goroutines inserting and assigning through a coalescing core over HTTP
// land exactly once each, and the pool balances.
func TestCoalescerConcurrentOps(t *testing.T) {
	tree := buildTree(t, 11)
	pol, _ := engine.PolicyByName("greedy")
	core, err := newFanCore(httpNodes(t, 2), tree, pol, "greedy", 1)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		perG    = 25
	)
	leaves := tree.NumPoints()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := g*perG + i
				if err := core.InsertCapEpoch(tree.CodeOf(id%leaves), id, 0, 0); err != nil {
					t.Errorf("insert %d: %v", id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := core.Len(); got != workers*perG {
		t.Fatalf("pool %d after concurrent inserts, want %d", got, workers*perG)
	}
	assigned := make([]map[int]bool, workers)
	for g := 0; g < workers; g++ {
		assigned[g] = map[int]bool{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if id, _, ok := core.Assign(tree.CodeOf((g*perG + i) % leaves)); ok {
					if assigned[g][id] {
						t.Errorf("worker %d assigned twice within one goroutine", id)
					}
					assigned[g][id] = true
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	seen := map[int]bool{}
	for g := 0; g < workers; g++ {
		for id := range assigned[g] {
			if seen[id] {
				t.Fatalf("worker %d assigned to two tasks (capacity 1)", id)
			}
			seen[id] = true
			total++
		}
	}
	if got := core.Len(); got != workers*perG-total {
		t.Fatalf("pool %d after %d assignments of %d, want %d",
			got, total, workers*perG, workers*perG-total)
	}
}

// waitFor polls a condition on state no event announces (the batcher's
// queue, its slot count), failing the test if it does not come true.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

type removed struct {
	id, units int
	found     bool
	err       error
}

// slotRig is a node holding workers 0..n-1 — worker i with i+1 units, so a
// Remove's answer names its caller — behind a parking wiretap, with every
// slot of the connection taken by a parked singleton frame and queued
// further Removes waiting behind them.
type slotRig struct {
	t       *testing.T
	conn    *httpNode
	tap     *wiretap.Tap
	arrived <-chan *wiretap.Frame
	slots   int
	results chan removed
	parked  []*wiretap.Frame // the singletons holding the slots
	remove  func(id int)     // starts a Remove of worker id on its own goroutine
}

func newSlotRig(t *testing.T, queued int) *slotRig {
	tree := buildTree(t, 7)
	node := NewNode()
	if err := node.Init(InitRequest{Tree: tree, Policy: "capacity-greedy"}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NodeHandler(node))
	t.Cleanup(ts.Close)
	tap, hc := wiretap.New(t, platform.NewTransport())
	r := &slotRig{t: t, tap: tap, arrived: tap.Park(), results: make(chan removed, 256)}
	r.conn = newHTTPNode(ts.URL, hc, NodeTimeouts{})
	r.slots = r.conn.ops.slots
	if r.slots != runtime.GOMAXPROCS(0) {
		t.Fatalf("%d slots at GOMAXPROCS %d", r.slots, runtime.GOMAXPROCS(0))
	}
	codeOf := func(id int) []byte { return []byte(tree.CodeOf(id % tree.NumPoints())) }
	for id := 0; id < r.slots+queued+1; id++ {
		if _, err := node.Do(OpRequest{Kind: OpInsert, Code: codeOf(id), ID: id, Capacity: id + 1}); err != nil {
			t.Fatal(err)
		}
	}
	r.remove = func(id int) {
		go func() {
			res, err := r.conn.Do(OpRequest{Kind: OpRemove, Idem: fmt.Sprintf("rm-%d", id), Code: codeOf(id), ID: id})
			r.results <- removed{id, res.Units, res.Found, err}
		}()
	}
	for id := 0; id < r.slots; id++ {
		r.remove(id)
	}
	for range r.slots {
		f := <-r.arrived
		if opsIn(f) != 1 {
			t.Fatalf("an op that found a free slot left in a frame of %d", opsIn(f))
		}
		r.parked = append(r.parked, f)
	}
	for id := r.slots; id < r.slots+queued; id++ {
		r.remove(id)
	}
	waitFor(t, "the ops behind full slots to queue", func() bool {
		r.conn.ops.mu.Lock()
		defer r.conn.ops.mu.Unlock()
		return len(r.conn.ops.pending) == queued
	})
	r.quietWire("with every slot taken")
	return r
}

// quietWire fails the test if a frame left that the slots have no room for.
func (r *slotRig) quietWire(when string) {
	r.t.Helper()
	select {
	case f := <-r.arrived:
		r.t.Fatalf("%s, a frame of %d ops is in flight past the %d slots", when, opsIn(f), r.slots)
	default:
	}
}

// drained waits for every slot to come back, and checks what came back with
// them: a stream per slot at most.
func (r *slotRig) drained() {
	r.t.Helper()
	waitFor(r.t, "every slot to be returned", func() bool {
		r.conn.ops.mu.Lock()
		defer r.conn.ops.mu.Unlock()
		return r.conn.ops.inflight == 0 && len(r.conn.ops.pending) == 0
	})
	r.conn.ops.mu.Lock()
	defer r.conn.ops.mu.Unlock()
	if n := len(r.conn.ops.idle); n > r.slots {
		r.t.Errorf("%d idle streams for %d slots", n, r.slots)
	}
}

// TestSlotsBoundEnvelopesInFlight: never more than GOMAXPROCS frames in
// flight to one node, each on a stream of its own; the ops that queued
// behind full slots leave in one frame the moment a slot frees, on that
// slot's stream; every caller gets its own answer.
func TestSlotsBoundEnvelopesInFlight(t *testing.T) {
	const queued = 5
	r := newSlotRig(t, queued)

	r.parked[0].Fate <- wiretap.Forward // one slot frees …
	coalesced := <-r.arrived
	if opsIn(coalesced) != queued { // … and takes the whole queue with it
		t.Fatalf("the freed slot shipped %d ops, want the %d that queued in one frame", opsIn(coalesced), queued)
	}
	r.quietWire("with the freed slot re-taken by the queue's frame")
	coalesced.Fate <- wiretap.Forward
	for _, f := range r.parked[1:] {
		f.Fate <- wiretap.Forward
	}
	for range r.slots + queued {
		if got := <-r.results; got.err != nil || !got.found || got.units != got.id+1 {
			t.Errorf("remove of worker %d answered units %d, found %v, err %v; want its own %d units",
				got.id, got.units, got.found, got.err, got.id+1)
		}
	}
	r.drained()
	// The flusher shipped on the stream its slot came with: nothing was
	// dialed past one stream a slot.
	if got := r.tap.Upgrades(); got != r.slots {
		t.Errorf("%d streams dialed for %d slots", got, r.slots)
	}
}

// TestEnvelopeFailureReachesEveryOpAndFreesItsSlot: an envelope-level
// failure comes back to every op the envelope carried, as the transport
// failure callers retry on, and its slot returns — the next op ships.
func TestEnvelopeFailureReachesEveryOpAndFreesItsSlot(t *testing.T) {
	const queued = 4
	r := newSlotRig(t, queued)

	r.parked[0].Fate <- wiretap.Fail // a singleton's failure is its caller's
	coalesced := <-r.arrived
	if opsIn(coalesced) != queued {
		t.Fatalf("the freed slot shipped %d ops, want %d", opsIn(coalesced), queued)
	}
	coalesced.Fate <- wiretap.Fail
	for _, f := range r.parked[1:] {
		f.Fate <- wiretap.Forward
	}
	failedSingletons := 0
	for range r.slots + queued {
		got := <-r.results
		switch {
		case got.err != nil && !isTransport(got.err):
			t.Errorf("worker %d: %v, want a transport failure", got.id, got.err)
		case got.id >= r.slots && got.err == nil:
			t.Errorf("worker %d rode the failed frame and was answered %d units", got.id, got.units)
		case got.id < r.slots && got.err != nil:
			failedSingletons++
		case got.err == nil && got.units != got.id+1:
			t.Errorf("worker %d was answered %d units", got.id, got.units)
		}
	}
	if failedSingletons != 1 {
		t.Errorf("%d of the %d singletons failed, want the one whose frame did", failedSingletons, r.slots)
	}
	r.drained()

	// Both failed frames gave their slots back: the next op ships at once.
	next := r.slots + queued
	r.remove(next)
	f := <-r.arrived
	if opsIn(f) != 1 {
		t.Fatalf("the op after the failures left in a frame of %d", opsIn(f))
	}
	f.Fate <- wiretap.Forward
	if got := <-r.results; got.err != nil || got.units != next+1 {
		t.Fatalf("the op after the failures answered units %d, err %v", got.units, got.err)
	}
	r.drained()
}

// tappedNodes stands up n nodes behind one wiretap.
func tappedNodes(t *testing.T, n int) ([]NodeConn, *wiretap.Tap) {
	tap, hc := wiretap.New(t, platform.NewTransport())
	nodes := make([]NodeConn, n)
	for i := range nodes {
		ts := httptest.NewServer(NodeHandler(NewNode()))
		t.Cleanup(ts.Close)
		nodes[i] = DialNodeClient(ts.URL, hc)
	}
	return nodes, tap
}

// TestSequentialCallerShipsSingletons: with nobody to share a slot with, an
// op is one frame of one op on the one stream the connection needs, sent
// from the caller's own goroutine — the coalescer starts none and keeps no
// slot.
func TestSequentialCallerShipsSingletons(t *testing.T) {
	tree := buildTree(t, 7)
	nodes, tap := tappedNodes(t, 1)
	conn := nodes[0].(*httpNode)
	if err := conn.Init(InitRequest{Tree: tree}); err != nil {
		t.Fatal(err)
	}
	const n = 40
	cycle := func(i int) {
		code := []byte(tree.CodeOf(i % tree.NumPoints()))
		if _, err := conn.Do(OpRequest{Kind: OpInsert, Idem: fmt.Sprintf("i-%d", i), Code: code, ID: i, Capacity: 1}); err != nil {
			t.Fatal(err)
		}
		if res, err := conn.Do(OpRequest{Kind: OpAssignSubtree, Idem: fmt.Sprintf("a-%d", i), Code: code}); err != nil || !res.Found || res.ID != i {
			t.Fatalf("assign %d: %+v, err %v", i, res, err)
		}
	}
	cycle(n) // the stream and its node-side goroutine exist from here on
	before := runtime.NumGoroutine()
	warm, _ := tap.Sent()
	for i := range n {
		cycle(i)
	}
	// net/http's own goroutines for the dial are gone or going; one the
	// coalescer or a stream started and kept would stay.
	waitFor(t, "the goroutine count to settle where it was", func() bool { return runtime.NumGoroutine() <= before })
	frames, _ := tap.Sent()
	if _, ops := countByNode(frames[len(warm):], opKindKey); len(frames)-len(warm) != 2*n || ops != 2*n {
		t.Errorf("%d sequential ops left as %d frames carrying %d ops, want one each", 2*n, len(frames)-len(warm), ops)
	}
	if got := tap.Upgrades(); got != 1 {
		t.Errorf("a sequential caller dialed %d streams, want the one it uses", got)
	}
	if conn.ops.inflight != 0 || len(conn.ops.pending) != 0 || len(conn.ops.idle) != 1 {
		t.Errorf("idle connection holds %d slots, %d queued ops and %d idle streams",
			conn.ops.inflight, len(conn.ops.pending), len(conn.ops.idle))
	}
}

// TestWindowCommitsInFewEnvelopes: the 64 concurrent consumes of a full
// batch-optimal window still coalesce — per node, the slots' singletons
// plus the queue's frame, with one to spare for a straggler — instead of
// costing a frame each.
func TestWindowCommitsInFewEnvelopes(t *testing.T) {
	tree := buildTree(t, 7)
	nodes, tap := tappedNodes(t, 3)
	pol, err := engine.PolicyByName("batch-optimal:k=4")
	if err != nil {
		t.Fatal(err)
	}
	core, err := newFanCore(nodes, tree, pol, "batch-optimal:k=4", 1)
	if err != nil {
		t.Fatal(err)
	}
	leaves := tree.NumPoints()
	for id := 0; id < 2*leaves; id++ {
		if err := core.InsertCapEpoch(tree.CodeOf(id%leaves), id, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	codes := make([]hst.Code, 64) // one window (engine.BatchWindowSize holds 256)
	for i := range codes {
		codes[i] = tree.CodeOf(i % leaves)
	}
	// A frame in flight long enough that every consume of the window is
	// issued before the first answer is back, as on a real network.
	tap.SetDelay(10 * time.Millisecond)
	loaded, _ := tap.Sent()
	ids, _ := core.AssignBatch(codes)
	for i, id := range ids {
		if id == engine.None {
			t.Fatalf("task %d unmatched with two workers a leaf", i)
		}
	}
	frames, _ := tap.Sent()
	// The window's mines are frames too, one a node: count the commits.
	byNode, ops := countByNode(frames[len(loaded):], []byte(`"kind":"consume"`))
	if ops != len(codes) {
		t.Fatalf("the window committed %d units for %d matches", ops, len(codes))
	}
	limit := runtime.GOMAXPROCS(0) + 2
	for node, n := range byNode {
		if n > limit {
			t.Errorf("node %s was sent %d ops frames for one window, want ≤ GOMAXPROCS + 2 = %d (all: %v)", node, n, limit, byNode)
		}
	}
}
