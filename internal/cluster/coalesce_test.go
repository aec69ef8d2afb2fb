package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/pombm/pombm/internal/engine"
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

	// Rotate the replay cache one generation (replayCapPerGen further
	// distinct keyed mutations) and replay again: the keys must survive in
	// the previous generation.
	filler := make([]OpRequest, 0, 128)
	id := 1000
	for n := 0; n < replayCapPerGen; n += len(filler) {
		filler = filler[:0]
		for i := 0; i < 128 && n+i < replayCapPerGen; i++ {
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
	if err := conn.Prepare(2, tree, 0, nextOf([]engine.EpochInsert{
		{Code: tree.CodeOf(0), ID: 1, Cap: 1},
		{Code: tree.CodeOf(2), ID: 3, Cap: 1},
	}), "prep-2"); err != nil {
		t.Fatal(err)
	}
	if err := conn.Commit(2, "commit-2"); err != nil {
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
			core, err := newFanCore(tc.nodes, tree, 0, pol, "batch-optimal:k=4", 1)
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
	core, err := newFanCore(httpNodes(t, 2), tree, 0, pol, "greedy", 1)
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
				if err := core.InsertEpoch(tree.CodeOf(id%leaves), id, 0); err != nil {
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
