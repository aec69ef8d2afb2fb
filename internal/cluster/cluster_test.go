package cluster

import (
	"encoding/base64"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/rng"
)

var testRegion = geo.NewRect(geo.Pt(0, 0), geo.Pt(100, 100))

// buildTree derives a test tree the same way the server does.
func buildTree(t testing.TB, seed uint64) *hst.Tree {
	t.Helper()
	grid, err := geo.NewGrid(testRegion, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hst.Build(grid.Points(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// httpNodes spins up n pombm-server node sides over real HTTP.
func httpNodes(t *testing.T, n int) []NodeConn {
	t.Helper()
	nodes := make([]NodeConn, n)
	for i := range nodes {
		ts := httptest.NewServer(NodeHandler(NewNode()))
		t.Cleanup(ts.Close)
		nodes[i] = DialNode(ts.URL)
	}
	return nodes
}

// nextOf adapts a slice to the pull iterator NodeConn.Prepare takes.
func nextOf(inserts []engine.EpochInsert) func() (engine.EpochInsert, bool, error) {
	i := 0
	return func() (engine.EpochInsert, bool, error) {
		if i == len(inserts) {
			return engine.EpochInsert{}, false, nil
		}
		i++
		return inserts[i-1], true, nil
	}
}

func localNodes(n int) []NodeConn {
	nodes := make([]NodeConn, n)
	for i := range nodes {
		nodes[i] = LocalNode(NewNode())
	}
	return nodes
}

// runTape drives the same randomised operation tape — inserts, removals,
// batch assignments spanning multiple windows — through a core and a
// reference engine, and fails on the first diverging answer.
func runTape(t *testing.T, core platform.Core, eng *engine.Engine, tree *hst.Tree, seed int64) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	leaves := tree.NumPoints()
	nextID := 0
	live := []struct {
		id   int
		code hst.Code
	}{}
	for round := 0; round < 6; round++ {
		for i := 0; i < 120; i++ {
			code := tree.CodeOf(rnd.Intn(leaves))
			id := nextID
			nextID++
			if err := core.InsertCapEpoch(code, id, 0, 0); err != nil {
				t.Fatalf("round %d: cluster insert %d: %v", round, id, err)
			}
			if err := eng.InsertEpoch(code, id, 0); err != nil {
				t.Fatalf("round %d: engine insert %d: %v", round, id, err)
			}
			live = append(live, struct {
				id   int
				code hst.Code
			}{id, code})
		}
		for i := 0; i < 15 && len(live) > 0; i++ {
			j := rnd.Intn(len(live))
			w := live[j]
			got := core.Remove(w.code, w.id)
			want := eng.Remove(w.code, w.id)
			if got != want {
				t.Fatalf("round %d: remove %d: cluster %v engine %v", round, w.id, got, want)
			}
			live = append(live[:j], live[j+1:]...)
		}
		n := 40 + rnd.Intn(engine.BatchWindowSize+40) // some rounds span two windows
		codes := make([]hst.Code, n)
		for i := range codes {
			codes[i] = tree.CodeOf(rnd.Intn(leaves))
		}
		gotIDs, gotLvls := core.AssignBatch(codes)
		wantIDs, wantLvls := eng.AssignBatch(codes)
		for i := range codes {
			if gotIDs[i] != wantIDs[i] || gotLvls[i] != wantLvls[i] {
				t.Fatalf("round %d task %d: cluster (%d,%d) engine (%d,%d)",
					round, i, gotIDs[i], gotLvls[i], wantIDs[i], wantLvls[i])
			}
		}
		// Keep live in sync: drop consumed units (capacity 1 → an assigned
		// worker is gone).
		assigned := map[int]bool{}
		for _, id := range wantIDs {
			if id != engine.None {
				assigned[id] = true
			}
		}
		kept := live[:0]
		for _, w := range live {
			if !assigned[w.id] {
				kept = append(kept, w)
			}
		}
		live = kept
		if core.Len() != eng.Len() {
			t.Fatalf("round %d: pool %d vs engine %d", round, core.Len(), eng.Len())
		}
		if core.Windows() != eng.Windows() {
			t.Fatalf("round %d: windows %d vs engine %d", round, core.Windows(), eng.Windows())
		}
	}
}

// TestScatterGatherBatchOptimalIdentity pins the tentpole acceptance
// criterion at the core level: the coordinator's scatter-gather window
// solve, over three real-HTTP backends, is bit-identical to the
// single-process batch-optimal policy on the same operation tape.
func TestScatterGatherBatchOptimalIdentity(t *testing.T) {
	tree := buildTree(t, 7)
	for _, tc := range []struct {
		name  string
		nodes []NodeConn
	}{
		{"http-3", httpNodes(t, 3)},
		{"local-2", localNodes(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol, err := engine.PolicyByName("batch-optimal:k=4")
			if err != nil {
				t.Fatal(err)
			}
			core, err := newFanCore(tc.nodes, tree, 0, pol, "batch-optimal:k=4", 1)
			if err != nil {
				t.Fatal(err)
			}
			refPol, _ := engine.PolicyByName("batch-optimal:k=4")
			eng, err := engine.NewWithOptions(tree, 0, engine.WithPolicy(refPol))
			if err != nil {
				t.Fatal(err)
			}
			runTape(t, core, eng, tree, 42)
		})
	}
}

// TestGreedyFanoutIdentity pins the routed + root-tier greedy path across
// nodes against the single-process rule.
func TestGreedyFanoutIdentity(t *testing.T) {
	tree := buildTree(t, 9)
	pol, err := engine.PolicyByName("greedy")
	if err != nil {
		t.Fatal(err)
	}
	core, err := newFanCore(localNodes(3), tree, 0, pol, "greedy", 1)
	if err != nil {
		t.Fatal(err)
	}
	refPol, _ := engine.PolicyByName("greedy")
	eng, err := engine.NewWithOptions(tree, 0, engine.WithPolicy(refPol))
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(3))
	leaves := tree.NumPoints()
	for i := 0; i < 200; i++ {
		if err := core.InsertCapEpoch(tree.CodeOf(rnd.Intn(leaves)), i, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	rnd = rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		if err := eng.InsertEpoch(tree.CodeOf(rnd.Intn(leaves)), i, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 260; i++ { // drains past empty: the unmatched tail must agree too
		code := tree.CodeOf(rnd.Intn(leaves))
		gid, glvl, gok := core.Assign(code)
		wid, wlvl, wok := eng.Assign(code)
		if gid != wid || glvl != wlvl || gok != wok {
			t.Fatalf("assign %d: cluster (%d,%d,%v) engine (%d,%d,%v)", i, gid, glvl, gok, wid, wlvl, wok)
		}
	}
}

// TestDistributedSwapIdentity pins the two-phase rotation: the same swap
// (new tree, new population) lands the same post-rotation answers as a
// single-process SwapEpoch, and the epoch is advanced on every node.
func TestDistributedSwapIdentity(t *testing.T) {
	tree := buildTree(t, 7)
	next := buildTree(t, 8)
	pol, _ := engine.PolicyByName("greedy")
	nodes := httpNodes(t, 3)
	core, err := newFanCore(nodes, tree, 0, pol, "greedy", 1)
	if err != nil {
		t.Fatal(err)
	}
	refPol, _ := engine.PolicyByName("greedy")
	eng, err := engine.NewWithOptions(tree, 0, engine.WithPolicy(refPol))
	if err != nil {
		t.Fatal(err)
	}
	var inserts []engine.EpochInsert
	for i := 0; i < 50; i++ {
		inserts = append(inserts, engine.EpochInsert{Code: next.CodeOf((i * 7) % next.NumPoints()), ID: i, Cap: 1})
	}
	if err := core.SwapEpochSeq(2, next, 0, slices.Values(inserts)); err != nil {
		t.Fatal(err)
	}
	if err := eng.SwapEpoch(2, next, 0, inserts); err != nil {
		t.Fatal(err)
	}
	if core.Epoch() != 2 {
		t.Fatalf("coordinator epoch %d after swap", core.Epoch())
	}
	for _, nd := range nodes {
		st, err := nd.Status(0)
		if err != nil {
			t.Fatal(err)
		}
		if st.Epoch != 2 {
			t.Fatalf("node epoch %d after commit", st.Epoch)
		}
	}
	rnd := rand.New(rand.NewSource(11))
	for i := 0; i < 70; i++ {
		code := next.CodeOf(rnd.Intn(next.NumPoints()))
		gid, glvl, gok := core.Assign(code)
		wid, wlvl, wok := eng.Assign(code)
		if gid != wid || glvl != wlvl || gok != wok {
			t.Fatalf("post-swap assign %d: cluster (%d,%d,%v) engine (%d,%d,%v)", i, gid, glvl, gok, wid, wlvl, wok)
		}
	}
	// A swap to a non-advancing epoch is refused without touching nodes.
	if err := core.SwapEpochSeq(2, next, 0, slices.Values([]engine.EpochInsert(nil))); err == nil {
		t.Fatal("re-swap to the serving epoch accepted")
	}
}

// failPrepareNode wraps a healthy node with a Prepare that always fails:
// the minority node of a rigged two-phase commit.
type failPrepareNode struct {
	NodeConn
	prepares int
}

func (f *failPrepareNode) Prepare(int64, *hst.Tree, int, func() (engine.EpochInsert, bool, error), string) error {
	f.prepares++
	return errors.New("rigged: prepare refused")
}

// TestPrepareFailureAbortsClusterWide is the rotation fault path: one
// backend refusing Prepare must abort the epoch everywhere — every node
// keeps serving the old epoch, and assignment keeps working.
func TestPrepareFailureAbortsClusterWide(t *testing.T) {
	tree := buildTree(t, 7)
	next := buildTree(t, 8)
	pol, _ := engine.PolicyByName("greedy")
	bad := &failPrepareNode{NodeConn: LocalNode(NewNode())}
	nodes := []NodeConn{LocalNode(NewNode()), bad, LocalNode(NewNode())}
	core, err := newFanCore(nodes, tree, 0, pol, "greedy", 1)
	if err != nil {
		t.Fatal(err)
	}
	code := tree.CodeOf(0)
	if err := core.InsertCapEpoch(code, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	err = core.SwapEpochSeq(2, next, 0, slices.Values([]engine.EpochInsert{{Code: next.CodeOf(0), ID: 9, Cap: 1}}))
	if err == nil {
		t.Fatal("swap committed past a failed prepare")
	}
	if bad.prepares == 0 {
		t.Fatal("rigged prepare never reached")
	}
	if core.Epoch() != engine.FirstEpoch {
		t.Fatalf("coordinator advanced to epoch %d past an aborted swap", core.Epoch())
	}
	for i, nd := range nodes {
		st, serr := nd.Status(0)
		if serr != nil {
			t.Fatal(serr)
		}
		if st.Epoch != engine.FirstEpoch {
			t.Fatalf("node %d serving epoch %d after cluster-wide abort", i, st.Epoch)
		}
	}
	// The old epoch still serves: the pre-swap worker is assignable and the
	// aborted epoch's population never landed.
	id, _, ok := core.Assign(code)
	if !ok || id != 1 {
		t.Fatalf("post-abort assign = (%d,%v), want worker 1", id, ok)
	}
	if id, _, ok = core.Assign(code); ok {
		t.Fatalf("aborted epoch's population leaked: assigned %d", id)
	}
}

// TestSubmitWithBackendDown is the serving fault path: a dead backend
// turns a routed Submit into a typed retryable unavailable error, while
// tasks routed to healthy backends keep being served.
func TestSubmitWithBackendDown(t *testing.T) {
	servers := make([]*httptest.Server, 3)
	nodes := make([]NodeConn, 3)
	for i := range nodes {
		servers[i] = httptest.NewServer(NodeHandler(NewNode()))
		nodes[i] = DialNodeClient(servers[i].URL, servers[i].Client())
	}
	defer func() {
		for _, ts := range servers[1:] {
			ts.Close()
		}
	}()
	// Seed 7's tree spreads its top branches across all three nodes (some
	// seeds put every leaf under one branch, which cannot stage a partial
	// outage).
	coord, err := New(Config{
		Region: testRegion, Cols: 8, Rows: 8, Epsilon: 0.6, Seed: 7,
		Nodes: nodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := coord.Server()
	tree := srv.Publication().Tree
	layout := engine.LayoutFor(tree, srv.Core().Shards())
	// The tree's population needn't spread across all three nodes; pick the
	// dead and live nodes from groups that actually hold leaves.
	codeOn := map[int]hst.Code{}
	for i := 0; i < tree.NumPoints(); i++ {
		c := tree.CodeOf(i)
		nd := layout.GroupOf(c) % 3
		if _, ok := codeOn[nd]; !ok {
			codeOn[nd] = c
		}
	}
	if len(codeOn) < 2 {
		t.Fatalf("tree routes to %d nodes, need 2 to stage a partial outage", len(codeOn))
	}
	deadNode := -1
	var dead, live hst.Code
	for nd, c := range codeOn {
		if deadNode < 0 {
			deadNode, dead = nd, c
		} else if live == "" {
			live = c
		}
	}
	if r := srv.Register(platform.RegisterRequest{WorkerID: "wl", Code: []byte(live)}); !r.OK {
		t.Fatalf("register on live node: %s", r.Reason)
	}
	servers[deadNode].Close() // that backend goes dark

	resp := srv.Submit(platform.TaskRequest{TaskID: "t-dead", Code: []byte(dead)})
	if resp.Assigned {
		t.Fatal("task routed to a dead backend was assigned")
	}
	if resp.Err == nil || !errors.Is(resp.Err, platform.ErrUnavailable) {
		t.Fatalf("dead-backend submit Err = %v, want unavailable", resp.Err)
	}
	if !resp.Err.Retryable {
		t.Error("unavailable refusal not marked retryable")
	}

	resp = srv.Submit(platform.TaskRequest{TaskID: "t-live", Code: []byte(live)})
	if !resp.Assigned || resp.WorkerID != "wl" {
		t.Fatalf("healthy-node submit = %+v, want wl assigned", resp)
	}
}

// TestIdempotentReplay pins the /v2 idempotency contract on singleton
// envelopes, the form a sequential caller's mutations take: re-POSTing a
// mutation with the same key returns byte-identical bytes and applies the
// mutation once; error responses are never cached.
func TestIdempotentReplay(t *testing.T) {
	tree := buildTree(t, 7)
	node := NewNode()
	ts := httptest.NewServer(NodeHandler(node))
	defer ts.Close()
	conn := DialNode(ts.URL)
	if err := conn.Init(InitRequest{Tree: tree, Idem: "init-1"}); err != nil {
		t.Fatal(err)
	}

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+PathNodeOps, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}
	code := tree.CodeOf(0)
	body := `{"ops":[{"kind":"insert","idem":"k1","code":"` + base64.StdEncoding.EncodeToString([]byte(code)) + `","id":5,"epoch":1}]}`
	_, first := post(body)
	_, second := post(body)
	if first != second {
		t.Fatalf("replay differs:\n%s\n---\n%s", first, second)
	}
	if !strings.Contains(first, `"results":[{"ok":true}]`) {
		t.Fatalf("insert refused: %s", first)
	}
	eng, _ := node.engine()
	if got := eng.Len(); got != 1 {
		t.Fatalf("insert applied %d times", got)
	}

	// A refused mutation (stale epoch pin) is never cached: the keyed retry
	// re-executes and is refused again, not replayed as a success.
	bad := `{"ops":[{"kind":"insert","idem":"k2","code":"` + base64.StdEncoding.EncodeToString([]byte(code)) + `","id":6,"epoch":99}]}`
	status, dup := post(bad)
	if status != http.StatusOK || !strings.Contains(dup, "stale_epoch") {
		t.Fatalf("stale insert did not surface a stale_epoch error: %d %s", status, dup)
	}
	_, dup2 := post(bad)
	if !strings.Contains(dup2, "stale_epoch") {
		t.Fatal("failed mutation was replayed from cache as a success")
	}
	if got := eng.Len(); got != 1 {
		t.Fatalf("refused inserts mutated the pool: len %d", got)
	}
}

// TestRestartedCoordinatorIsNotReplayed: a second coordinator incarnation
// over the same live nodes starts its key sequence over while the nodes'
// replay caches still hold its predecessor's answers. Its keys must not
// collide with them — a replayed init leaves the old pool in place, a
// replayed insert is acked and never lands.
func TestRestartedCoordinatorIsNotReplayed(t *testing.T) {
	tree := buildTree(t, 7)
	nodes := httpNodes(t, 3)
	pol, _ := engine.PolicyByName("greedy")
	first, err := newFanCore(nodes, tree, 0, pol, "greedy", 1)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 3; id++ {
		if err := first.InsertCapEpoch(tree.CodeOf(id), id, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := first.Len(); got != 3 {
		t.Fatalf("first incarnation's pool %d, want 3", got)
	}

	second, err := newFanCore(nodes, tree, 0, pol, "greedy", 1)
	if err != nil {
		t.Fatal(err)
	}
	if first.nextIdem()[:len(first.idemNonce)] == second.nextIdem()[:len(second.idemNonce)] {
		t.Fatal("two incarnations drew the same key nonce")
	}
	if got := second.Len(); got != 0 {
		t.Fatalf("pool %d after the second incarnation's init, want the fresh engines' 0 (init replayed, not applied?)", got)
	}
	for id := 10; id < 13; id++ {
		if err := second.InsertCapEpoch(tree.CodeOf(id-10), id, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := second.Len(); got != 3 {
		t.Fatalf("pool %d after three inserts, want 3 (inserts acked from the cache, never landed?)", got)
	}
	if id, _, ok := second.Assign(tree.CodeOf(0)); !ok || id != 10 {
		t.Fatalf("assign at worker 10's leaf answered %d, %v", id, ok)
	}
	// A key is memory on every node that retains it: it stays inside the
	// 16-byte size class.
	if key := second.nextIdem(); len(key) > 16 {
		t.Fatalf("idempotency key %q is %d bytes, want ≤ 16", key, len(key))
	}
}

// TestCoordinatorEndToEndHTTP drives the full stack over two real HTTP
// hops — agent → coordinator → node — through the public Dial surface.
func TestCoordinatorEndToEndHTTP(t *testing.T) {
	coord, err := New(Config{
		Region: testRegion, Cols: 8, Rows: 8, Epsilon: 0.6, Seed: 42,
		Nodes: httpNodes(t, 3), Policy: "batch-optimal:k=4",
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord.Handler())
	defer front.Close()
	client, err := Dial(front.URL)
	if err != nil {
		t.Fatal(err)
	}
	var api platform.API = client // the redesigned surface
	pub := client.Publication()
	if pub.Tree == nil {
		t.Fatal("coordinator published no tree")
	}
	obf, err := platform.NewObfuscator(pub, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		w := platform.Worker{ID: "w" + string(rune('a'+i)), Loc: geo.Pt(float64(i*4), float64(i*4))}
		if err := w.Register(api, obf); err != nil {
			t.Fatal(err)
		}
	}
	req := platform.TaskBatchRequest{}
	for i := 0; i < 12; i++ {
		req.Tasks = append(req.Tasks, platform.TaskRequest{
			TaskID: "t" + string(rune('a'+i)),
			Code:   []byte(obf.Obfuscate(geo.Pt(float64(i*7), float64(i*5)))),
		})
	}
	resp := api.SubmitBatch(req)
	assigned := 0
	for _, r := range resp.Results {
		if r.Assigned {
			assigned++
		}
	}
	if assigned == 0 {
		t.Fatal("no task assigned through the coordinator")
	}
	stats, err := api.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.AvailableWorkers != 20-assigned {
		t.Fatalf("stats pool %d, want %d", stats.AvailableWorkers, 20-assigned)
	}
}
